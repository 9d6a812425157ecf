#include "simrun/daemon.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"

namespace ecrs::simrun {
namespace {

// QoS classes per microservice id, as the generator assigned them.
std::vector<workload::qos_class> qos_of(const workload::generator& gen) {
  std::vector<workload::qos_class> qos;
  const std::uint32_t n = gen.microservice_count();
  qos.reserve(n);
  for (std::uint32_t m = 0; m < n; ++m) qos.push_back(gen.class_of(m));
  return qos;
}

// FNV-1a folded over 64-bit words instead of bytes, with no buffer: the
// setup hash walks every standing bid, and a daemon is built once per run,
// so its cost lands in the setup time.
class setup_hasher {
 public:
  // ECRS_NO_SANITIZE_INTEGER: the multiply wraps mod 2^64 by design.
  ECRS_NO_SANITIZE_INTEGER void u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001b3ULL;
  }
  void u32(std::uint32_t v) { u64(v); }
  void u8(std::uint8_t v) { u64(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The outcome-determining fields of one SSAM configuration. Thread counts,
// self_audit and eager_reference leave every result unchanged, so they are
// left out.
void hash_stage(setup_hasher& w, const auction::ssam_options& o) {
  w.u8(static_cast<std::uint8_t>(o.rule));
  w.f64(o.critical_value_eps);
  w.f64(o.payment_budget);
}

// Hash of every behaviour-determining input of the setup: the scalars,
// the market configuration, the topology's latencies and the standing
// bids. Two setups with equal hashes run the same horizon; the hash gates
// checkpoint restores (common/checkpoint.h header). Output-invariant knobs
// (thread counts, self_audit, warm_start, eager_reference) are left out so
// a checkpoint restores under any of their settings.
std::uint64_t hash_setup(const daemon_setup& s) {
  setup_hasher w;
  w.f64(s.config.round_duration);
  w.f64(s.config.base_allocation);
  w.f64(s.config.resources_per_unit);
  w.f64(s.config.scenario.diurnal_amplitude);
  w.u64(s.config.scenario.diurnal_period);
  w.u64(s.config.scenario.flash_every);
  w.u64(s.config.scenario.flash_duration);
  w.f64(s.config.scenario.flash_factor);
  w.u64(s.config.scenario.churn_every);
  w.u64(s.config.scenario.churn_downtime);
  w.u32(s.workload.users);
  w.u32(s.workload.microservices);
  w.f64(s.workload.delay_sensitive_fraction);
  w.f64(s.workload.sensitive_mean);
  w.f64(s.workload.tolerant_mean);
  w.f64(s.workload.mean_service_demand);
  w.f64(s.workload.sensitive_mean_demand);
  w.f64(s.workload.tolerant_mean_demand);
  w.u32(s.workload.regions);
  w.u64(s.workload.seed);
  w.u32(s.cluster.clouds);
  w.f64(s.cluster.capacity_per_cloud);
  w.u64(s.cluster.seed);
  w.f64(s.estimator.zeta);
  w.f64(s.estimator.delta);
  w.f64(s.estimator.w_waiting);
  w.f64(s.estimator.w_processing);
  w.f64(s.estimator.w_request_rate);
  w.f64(s.estimator.smoothing);
  w.f64(s.estimator.trend_smoothing);
  w.f64(s.estimator.max_utilization);
  w.f64(s.estimator.round_duration);
  w.u64(s.estimator.forget_after);
  w.u32(s.ingest.regions);
  w.u32(s.ingest.microservices);
  w.f64(s.ingest.unit_demand);
  w.i64(s.ingest.max_requirement);
  w.f64(s.ingest.supply_margin);
  w.f64(s.ingest.demand_scale);
  w.size(s.sellers.size());
  for (const auto& region : s.sellers) {
    w.size(region.size());
    for (const auto& p : region) {
      w.i64(p.capacity);
      w.u32(p.t_arrive);
      w.u32(p.t_depart);
    }
  }
  hash_stage(w, s.market.shard.session.stage);
  w.f64(s.market.shard.session.alpha);
  hash_stage(w, s.market.spillover.stage);
  w.f64(s.market.spillover.cost_per_ms);
  w.f64(s.market.spillover.max_latency);
  w.size(s.market.spillover.max_regions);
  const std::uint32_t clouds = s.topology.clouds();
  w.u32(clouds);
  for (std::uint32_t a = 0; a < clouds; ++a) {
    for (std::uint32_t b = 0; b < clouds; ++b) w.f64(s.topology.latency(a, b));
  }
  // Standing bids (their requirement vectors are rewritten every round).
  w.size(s.standing.regions.size());
  for (const auto& region : s.standing.regions) {
    w.size(region.bids.size());
    for (const auction::bid& b : region.bids) {
      w.u32(b.seller);
      w.u32(b.index);
      w.i64(b.amount);
      w.f64(b.price);
      w.size(b.coverage.size());
      for (const auction::demander_id k : b.coverage) w.u32(k);
    }
  }
  return w.value();
}

}  // namespace

daemon::daemon(daemon_setup setup)
    : config_hash_(hash_setup(setup)),
      config_(setup.config),
      gen_(setup.workload),
      cluster_(setup.cluster, qos_of(gen_)),
      estimator_(setup.estimator),
      topo_(std::move(setup.topology)),
      market_(topo_, setup.sellers, setup.market),
      ingestor_(setup.ingest, std::move(setup.standing)) {
  ECRS_CHECK_MSG(config_.round_duration > 0.0,
                 "round duration must be positive");
  ECRS_CHECK_MSG(config_.base_allocation >= 0.0 &&
                     config_.resources_per_unit >= 0.0,
                 "allocation coupling must be non-negative");
  ECRS_CHECK_MSG(setup.estimator.round_duration == config_.round_duration,
                 "estimator and daemon disagree on the round duration");
  ECRS_CHECK_MSG(
      setup.ingest.microservices == setup.workload.microservices,
      "ingest and workload disagree on the microservice count");
  ECRS_CHECK_MSG(setup.ingest.regions == setup.workload.regions,
                 "ingest and workload disagree on the region count");
  ECRS_CHECK_MSG(setup.sellers.size() == setup.ingest.regions,
                 "one seller set per region required");
  const scenario_config& sc = config_.scenario;
  ECRS_CHECK_MSG(sc.diurnal_amplitude >= 0.0 && sc.diurnal_amplitude < 1.0,
                 "diurnal amplitude must be in [0,1)");
  ECRS_CHECK_MSG(sc.flash_factor >= 0.0, "flash factor must be non-negative");
  ECRS_CHECK_MSG(sc.flash_every == 0 || sc.flash_duration >= 1,
                 "flash crowds need a positive duration");

  seller_counts_.reserve(setup.sellers.size());
  for (const auto& region : setup.sellers) {
    ECRS_CHECK_MSG(!region.empty(), "every region needs at least one seller");
    seller_counts_.push_back(static_cast<std::uint32_t>(region.size()));
  }

  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  population_.reserve(services);
  for (std::uint32_t m = 0; m < services; ++m) {
    population_.push_back(static_cast<std::uint32_t>(
        cluster_.cloud(cluster_.cloud_of(m)).hosted.size()));
  }
  estimates_.resize(services, 0.0);
  granted_.resize(services, 0);
}

churn_event daemon::churn_target(std::uint64_t ordinal) const {
  const auto regions = static_cast<std::uint64_t>(seller_counts_.size());
  churn_event e;
  e.region = static_cast<std::uint32_t>(ordinal % regions);
  e.seller = static_cast<std::uint32_t>((ordinal / regions) %
                                        seller_counts_[e.region]);
  return e;
}

void daemon::apply_churn(std::uint64_t round) {
  const scenario_config& sc = config_.scenario;
  if (sc.churn_every == 0) return;
  // Recover first, then fail: when a downtime expires in the same round a
  // new outage of the same seller starts, the outage wins.
  if (sc.churn_downtime > 0 && round > sc.churn_downtime &&
      (round - sc.churn_downtime) % sc.churn_every == 0) {
    const churn_event e =
        churn_target((round - sc.churn_downtime) / sc.churn_every);
    market_.set_seller_active(e.region, e.seller, true);
  }
  if (round % sc.churn_every == 0) {
    const churn_event e = churn_target(round / sc.churn_every);
    market_.set_seller_active(e.region, e.seller, false);
  }
}

void daemon::apply_allocations(const auction::regional_instance& inst,
                               const market::marketplace_round& out) {
  const std::uint32_t regions = ingestor_.config().regions;
  // Units each microservice ends up holding: its quantized requirement,
  // minus what the local round left uncovered, plus spillover awards.
  for (std::uint32_t r = 0; r < regions; ++r) {
    const std::vector<auction::units>& req = inst.regions[r].requirements;
    for (std::uint32_t k = 0; k < req.size(); ++k) {
      granted_[static_cast<std::size_t>(k) * regions + r] = req[k];
    }
  }
  for (std::uint32_t r = 0; r < regions; ++r) {
    for (const market::spill_deficit& def : out.shards[r].uncovered) {
      granted_[static_cast<std::size_t>(def.demander) * regions + r] -=
          def.missing;
    }
  }
  for (const market::spill_award& award : out.spillover.awards) {
    for (const auction::demander_id k : award.covered) {
      granted_[static_cast<std::size_t>(k) * regions +
               award.demand_region] += award.amount;
    }
  }
  for (std::size_t m = 0; m < granted_.size(); ++m) {
    const double g =
        static_cast<double>(std::max<auction::units>(0, granted_[m]));
    cluster_.service(static_cast<std::uint32_t>(m))
        .set_allocation(config_.base_allocation +
                        config_.resources_per_unit * g);
  }
}

void daemon::run_one_round() {
  const std::uint64_t r = completed_ + 1;
  const double dur = config_.round_duration;
  const double start = static_cast<double>(r - 1) * dur;
  // The boundary is r*dur, never start+dur: a daemon resumed from a
  // checkpoint computes the identical double for every boundary.
  const double end = static_cast<double>(r) * dur;

  gen_.set_rate_scale(scenario_rate_scale(config_.scenario, r));
  apply_churn(r);

  gen_.round_lanes(start, dur, lanes_);
  delivery_.deliver_round(cluster_, lanes_, clock_, end);
  delivered_ += lanes_.requests.size();
  clock_ = end;

  const auto services =
      static_cast<std::uint32_t>(cluster_.microservice_count());
  if (probe_) probe_(true);
  for (std::uint32_t m = 0; m < services; ++m) {
    estimator_.observe(
        cluster_.service(m).end_round(r, dur, population_[m]));
  }
  estimator_.estimates_into(estimates_);

  ingestor_.add_demands(estimates_);
  const auction::regional_instance& inst = ingestor_.finalize();
  if (probe_) probe_(false);
  market_.run_round(inst, market_out_);
  apply_allocations(inst, market_out_);

  ++completed_;
  if (callback_) callback_(r, market_out_, estimates_);
}

void daemon::run_rounds(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) run_one_round();
}

void daemon::save(ecrs::checkpoint_writer& w) const {
  w.u64(completed_);
  w.u64(delivered_);
  // The boundary clock mark (all per-service clocks are equal between
  // rounds). Serialized, never recomputed, so the restored FP state is the
  // straight-through run's bit for bit.
  w.f64(clock_);
  gen_.save(w);
  cluster_.save(w);
  estimator_.save(w);
  market_.save(w);
}

void daemon::load(ecrs::checkpoint_reader& r) {
  ECRS_CHECK_MSG(completed_ == 0,
                 "checkpoints restore into a freshly constructed daemon");
  completed_ = r.u64();
  delivered_ = r.u64();
  clock_ = r.f64();
  gen_.load(r);
  cluster_.load(r);
  estimator_.load(r);
  market_.load(r);
}

void daemon::save_file(const std::string& path) const {
  ecrs::checkpoint_writer w;
  save(w);
  ecrs::save_checkpoint_file(path, config_hash_, w.payload());
}

void daemon::load_file(const std::string& path) {
  const std::vector<std::uint8_t> payload =
      ecrs::load_checkpoint_file(path, config_hash_);
  ecrs::checkpoint_reader r(payload);
  load(r);
  ECRS_CHECK_MSG(r.exhausted(), "daemon checkpoint has trailing state");
}

}  // namespace ecrs::simrun
