// Tests for the sustained closed-loop marketplace daemon (simrun/daemon.h):
// the per-round observe -> estimate -> ingest -> auction -> allocate cycle,
// scenario programs (diurnal load, flash crowds, seller churn) and the
// checkpoint/restore contract — a daemon restored at ANY round boundary
// replays the remaining horizon byte-identically to the straight-through
// run, at any marketplace thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "common/check.h"
#include "common/checkpoint.h"
#include "harness/internal.h"
#include "simrun/daemon.h"
#include "simrun/delivery.h"

namespace ecrs::test_support {
std::uint64_t allocations_now();  // tests/alloc_counter.cc
}  // namespace ecrs::test_support

namespace ecrs::simrun {
namespace {

constexpr std::uint32_t kRegions = 4;
constexpr std::uint32_t kSellers = 3;
constexpr std::uint32_t kDemanders = 2;

daemon_config make_config(double round_duration = 50.0) {
  daemon_config cfg;
  cfg.round_duration = round_duration;
  return cfg;
}

// Market and load sizes of a test setup (the defaults keep rounds tiny).
struct setup_size {
  std::uint32_t regions = kRegions;
  std::uint32_t sellers = kSellers;
  std::uint32_t demanders = kDemanders;
  std::uint32_t users = 6;
};

daemon_setup make_setup(std::uint64_t seed,
                        daemon_config dcfg = make_config(),
                        setup_size size = {}) {
  auction::online_config stage;
  stage.stage =
      harness::internal::paper_stage(size.sellers, size.demanders, 2);
  stage.rounds = 1;  // only the standing (round 1) bid sets are used
  auction::regional_config regional;
  regional.regions = size.regions;
  rng gen = harness::internal::point_rng(seed, 13, 0, 0);
  auction::regional_online_instance input =
      auction::random_regional_online_instance(stage, regional, gen);

  daemon_setup s;
  s.topology = edge::topology::ring(size.regions);
  s.standing.regions.reserve(size.regions);
  s.sellers.reserve(size.regions);
  for (auto& region : input.regions) {
    s.standing.regions.push_back(region.rounds.front());
    for (auction::seller_profile& p : region.sellers) {
      // The single-round generator leaves every seller the window [1,1]
      // and a one-round budget; widen both so the market stays live over
      // a long daemon horizon.
      p.capacity *= 10000;
      p.t_arrive = 1;
      p.t_depart = 0x7fffffffu;
    }
    s.sellers.push_back(std::move(region.sellers));
  }
  s.workload.users = size.users;
  s.workload.microservices = size.regions * size.demanders;
  s.workload.regions = size.regions;
  s.workload.seed = seed;
  s.cluster.clouds = size.regions;
  s.cluster.seed = seed ^ 0xc0ffeeULL;
  s.estimator = demand::make_default_config();
  s.estimator.round_duration = dcfg.round_duration;
  s.ingest.regions = size.regions;
  s.ingest.microservices = size.regions * size.demanders;
  s.ingest.unit_demand = 4.0;
  s.ingest.max_requirement = stage.stage.requirement_hi;
  s.ingest.supply_margin = stage.stage.supply_margin;
  s.market.threads = 1;
  s.market.shard.session.stage.payment_threads = 1;
  s.market.spillover.stage.payment_threads = 1;
  s.config = dcfg;
  return s;
}

// Exact byte-level digest of everything a daemon round decided: the full
// marketplace outcome plus the round's estimates and grants.
void digest_round(const market::marketplace_round& round,
                  std::span<const double> estimates,
                  std::span<const auction::units> grants,
                  std::vector<std::uint64_t>& out) {
  const auto push_double = [&](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  out.push_back(round.round);
  for (const auto& shard : round.shards) {
    out.push_back(shard.outcome.winner_bids.size());
    for (const std::size_t w : shard.outcome.winner_bids) out.push_back(w);
    for (const double p : shard.outcome.payments) push_double(p);
    push_double(shard.outcome.social_cost);
    out.push_back(static_cast<std::uint64_t>(shard.deficit));
  }
  out.push_back(round.spillover.awards.size());
  for (const auto& award : round.spillover.awards) {
    out.push_back(award.demand_region);
    out.push_back(award.seller);
    out.push_back(static_cast<std::uint64_t>(award.amount));
    push_double(award.payment);
  }
  push_double(round.social_cost);
  push_double(round.total_payment);
  for (const double e : estimates) push_double(e);
  for (const auction::units g : grants) {
    out.push_back(static_cast<std::uint64_t>(g));
  }
}

std::vector<std::uint8_t> save_bytes(const daemon& d) {
  ecrs::checkpoint_writer w;
  d.save(w);
  const std::span<const std::uint8_t> p = w.payload();
  return {p.begin(), p.end()};
}

// Attach a digest-per-round callback; digests land in `rounds[round - 1]`.
void record_rounds(daemon& d, std::vector<std::vector<std::uint64_t>>& rounds) {
  d.set_round_callback([&rounds, &d](std::uint64_t round,
                                     const market::marketplace_round& out,
                                     std::span<const double> estimates) {
    ASSERT_LE(round, rounds.size());
    digest_round(out, estimates, d.last_grants(), rounds[round - 1]);
  });
}

TEST(Daemon, ClosedLoopRunsAndFeedsGrantsBackIntoAllocations) {
  daemon d(make_setup(1));
  std::uint64_t callbacks = 0;
  d.set_round_callback([&](std::uint64_t round,
                           const market::marketplace_round& out,
                           std::span<const double> estimates) {
    ++callbacks;
    EXPECT_EQ(round, callbacks);
    EXPECT_EQ(out.shards.size(), kRegions);
    EXPECT_EQ(estimates.size(), kRegions * kDemanders);
  });
  d.run_rounds(5);

  EXPECT_EQ(d.rounds_completed(), 5u);
  EXPECT_EQ(callbacks, 5u);
  EXPECT_GT(d.requests_delivered(), 0u);
  EXPECT_EQ(d.estimator().rounds_observed(), 5u);
  EXPECT_EQ(d.market().rounds_run(), 5u);

  // The loop is closed: every service runs the next round at exactly
  // base + per_unit * granted, and at least one grant is positive.
  const std::span<const auction::units> grants = d.last_grants();
  ASSERT_EQ(grants.size(), kRegions * kDemanders);
  auction::units total = 0;
  for (std::uint32_t m = 0; m < grants.size(); ++m) {
    const auto g = static_cast<double>(std::max<auction::units>(0, grants[m]));
    EXPECT_DOUBLE_EQ(d.cluster().service(m).allocation(),
                     d.config().base_allocation +
                         d.config().resources_per_unit * g);
    total += std::max<auction::units>(0, grants[m]);
  }
  EXPECT_GT(total, 0);
}

TEST(Daemon, ByteIdenticalAcrossMarketplaceThreadCounts) {
  const std::uint64_t horizon = 6;
  std::vector<std::vector<std::uint64_t>> serial(horizon);
  std::vector<std::vector<std::uint64_t>> parallel(horizon);

  daemon a(make_setup(2));
  record_rounds(a, serial);
  a.run_rounds(horizon);

  daemon_setup wide = make_setup(2);
  wide.market.threads = 4;
  wide.ingest.threads = 4;
  daemon b(std::move(wide));
  record_rounds(b, parallel);
  b.run_rounds(horizon);

  EXPECT_EQ(a.requests_delivered(), b.requests_delivered());
  for (std::uint64_t r = 0; r < horizon; ++r) {
    EXPECT_EQ(serial[r], parallel[r]) << "round " << r + 1;
  }
  EXPECT_EQ(save_bytes(a), save_bytes(b));
}

// A setup at perfbench steady_requests' sizes: 8 regions x 4 demanders x
// 8 sellers and 6667 users at 7.5 requests per class, ~1e5 requests per
// 10-minute round, with flash crowds tripling the rate in the first 2 of
// every 10 rounds (~3e5 requests). Every batch is large enough for the
// generator's passes and the per-service delivery to fan out.
daemon_setup fan_out_setup(std::size_t threads) {
  daemon_config cfg = make_config(600.0);
  cfg.resources_per_unit = 4.0;  // one unit serves unit_demand per second
  cfg.scenario.flash_every = 10;
  cfg.scenario.flash_duration = 2;
  cfg.scenario.flash_factor = 3.0;
  daemon_setup s = make_setup(7, cfg, {8, 8, 4, 6667});
  s.workload.sensitive_mean = 7.5;
  s.workload.tolerant_mean = 7.5;
  s.market.threads = threads;
  s.ingest.threads = threads;
  return s;
}

// Every round's marketplace outcome, estimates and grants over a 24-round
// horizon, plus the final checkpoint bytes, folded into one FNV-1a digest.
// The constant was recorded before request generation and delivery moved
// onto the thread pool, so it pins the whole closed loop at a size where
// both fan out (over thread_pool::shared(), whatever the market's cap).
// One run is enough: the market's thread cap does not reach the pool at
// 32 demanders, which is under marketplace.cc's inline grain; the
// MarketplaceDeterminism tests cover caps past that grain.
TEST(Daemon, GoldenDigestAtFanOutSize) {
  daemon d(fan_out_setup(4));
  std::vector<std::uint64_t> words;
  d.set_round_callback([&words, &d](std::uint64_t,
                                    const market::marketplace_round& out,
                                    std::span<const double> estimates) {
    digest_round(out, estimates, d.last_grants(), words);
  });
  d.run_rounds(24);
  EXPECT_GT(d.requests_delivered(), 3000000u);
  ecrs::checkpoint_writer w;
  for (const std::uint64_t word : words) w.u64(word);
  d.save(w);
  EXPECT_EQ(ecrs::fnv1a64(w.payload()), 0xf122c92036566d37ULL);
}

std::vector<std::uint8_t> cluster_bytes(const edge::cluster& c) {
  ecrs::checkpoint_writer w;
  c.save(w);
  return {w.payload().begin(), w.payload().end()};
}

// batch_delivery over the round's lanes against the single-stream DES
// delivery of the time-sorted batch (the reference path perfbench's
// replica keeps): at the daemon's size, with a 3x flash round, both
// clusters hold the same bytes — queues, partial service and every
// accumulator — after every round.
TEST(Delivery, FanOutMatchesDesStreamBitForBit) {
  workload::generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  cfg.seed = 11;
  workload::generator gen(cfg);
  std::vector<workload::qos_class> qos;
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    qos.push_back(gen.class_of(m));
  }
  edge::cluster_config ccfg;
  ccfg.clouds = 8;
  edge::cluster fanned(ccfg, qos);
  edge::cluster streamed(ccfg, qos);
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    // Below the ~5.2 resource-seconds per second that arrive: queues grow.
    fanned.service(m).set_allocation(4.0 + 0.1 * m);
    streamed.service(m).set_allocation(4.0 + 0.1 * m);
  }
  // The twin generator draws the same stream as the time-sorted batch.
  workload::generator twin(cfg);
  simrun::batch_delivery delivery;
  simrun::des_delivery reference;
  workload::request_lanes lanes;
  std::vector<workload::request> batch;
  for (std::uint64_t round = 1; round <= 4; ++round) {
    const double start = static_cast<double>(round - 1) * 600.0;
    const double end = static_cast<double>(round) * 600.0;
    gen.set_rate_scale(round == 2 ? 3.0 : 1.0);
    twin.set_rate_scale(round == 2 ? 3.0 : 1.0);
    gen.round_lanes(start, 600.0, lanes);
    twin.round_into(start, 600.0, batch);
    ASSERT_GT(batch.size(), 90000u);

    delivery.deliver_round(fanned, lanes, start, end);
    reference.deliver_round(streamed, batch, start, end);
    ASSERT_EQ(cluster_bytes(fanned), cluster_bytes(streamed))
        << "round " << round;
    (void)fanned.end_round(round, 600.0);
    (void)streamed.end_round(round, 600.0);
  }
  EXPECT_GT(fanned.service(0).queue_length(), 0u);
}

// A warm steady-size round's generation and lane delivery allocate
// nothing when no request carries over: the lanes and every scratch
// buffer are reused, requests are served in place, and no service queue
// grows. The warm-up starts with a 3x flash round, which sizes each
// buffer above what a steady round needs (a buffer grows only when a
// round exceeds every earlier one).
TEST(Delivery, WarmLaneRoundAllocatesNothing) {
  workload::generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  cfg.seed = 12;
  workload::generator gen(cfg);
  std::vector<workload::qos_class> qos;
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    qos.push_back(gen.class_of(m));
  }
  edge::cluster_config ccfg;
  ccfg.clouds = 8;
  edge::cluster cluster(ccfg, qos);
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    cluster.service(m).set_allocation(1e9);  // every request done at once
  }
  simrun::batch_delivery delivery;
  workload::request_lanes lanes;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    const double start = static_cast<double>(round - 1) * 600.0;
    const double end = static_cast<double>(round) * 600.0;
    gen.set_rate_scale(round == 1 ? 3.0 : 1.0);
    const std::uint64_t before = test_support::allocations_now();
    gen.round_lanes(start, 600.0, lanes);
    delivery.deliver_round(cluster, lanes, start, end);
    const std::uint64_t allocations = test_support::allocations_now() - before;
    ASSERT_GT(lanes.requests.size(), 90000u);
    for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
      ASSERT_EQ(cluster.service(m).queue_length(), 0u) << "service " << m;
      (void)cluster.service(m).end_round(round, 600.0, 1);
    }
    if (round == 1) {
      EXPECT_GT(allocations, 0u);  // the counter sees the cold round
    } else {
      EXPECT_EQ(allocations, 0u) << "round " << round;
    }
  }
}

TEST(Delivery, RejectsLanesThatDoNotFitTheRound) {
  const std::vector<workload::qos_class> qos(
      3, workload::qos_class::delay_sensitive);
  edge::cluster cluster(edge::cluster_config{}, qos);
  simrun::batch_delivery delivery;
  workload::request_lanes lanes;
  lanes.requests.resize(1);
  lanes.requests[0].microservice = 1;
  lanes.offsets = {0, 0, 1};  // two lanes for three services
  EXPECT_THROW(delivery.deliver_round(cluster, lanes, 0.0, 10.0),
               check_error);
  lanes.offsets = {0, 0, 1, 1};
  for (const double t : {-1.0, 11.0}) {
    lanes.requests[0].arrival_time = t;
    EXPECT_THROW(delivery.deliver_round(cluster, lanes, 0.0, 10.0),
                 check_error)
        << "arrival at " << t;
    EXPECT_EQ(cluster.service(1).queue_length(), 0u);
  }
  lanes.requests[0].arrival_time = 4.0;
  delivery.deliver_round(cluster, lanes, 0.0, 10.0);
  EXPECT_EQ(cluster.service(1).total_received(), 1u);
}

TEST(Daemon, CheckpointResumeByteIdenticalAtEveryRoundBoundary) {
  const std::uint64_t horizon = 6;
  daemon straight(make_setup(3));
  std::vector<std::vector<std::uint64_t>> expected(horizon);
  record_rounds(straight, expected);
  straight.run_rounds(horizon);
  const std::vector<std::uint8_t> final_state = save_bytes(straight);

  for (std::uint64_t boundary = 0; boundary < horizon; ++boundary) {
    SCOPED_TRACE(testing::Message() << "boundary after round " << boundary);
    daemon first(make_setup(3));
    first.run_rounds(boundary);
    const std::string path = testing::TempDir() + "daemon_ckpt_" +
                             std::to_string(boundary) + ".bin";
    first.save_file(path);

    daemon resumed(make_setup(3));
    resumed.load_file(path);
    EXPECT_EQ(resumed.rounds_completed(), boundary);
    std::vector<std::vector<std::uint64_t>> replay(horizon);
    record_rounds(resumed, replay);
    resumed.run_rounds(horizon - boundary);

    EXPECT_EQ(resumed.rounds_completed(), horizon);
    EXPECT_EQ(resumed.requests_delivered(), straight.requests_delivered());
    for (std::uint64_t r = boundary; r < horizon; ++r) {
      EXPECT_EQ(replay[r], expected[r]) << "round " << r + 1;
    }
    EXPECT_EQ(save_bytes(resumed), final_state);
  }
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Daemon, CheckpointFileRejectsCorruption) {
  daemon d(make_setup(4));
  d.run_rounds(2);
  const std::string path = testing::TempDir() + "daemon_ckpt_corrupt.bin";
  d.save_file(path);
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 40u);  // header + payload

  const auto expect_rejected = [&](const std::vector<char>& bytes) {
    const std::string bad_path = testing::TempDir() + "daemon_ckpt_bad.bin";
    write_file(bad_path, bytes);
    daemon fresh(make_setup(4));
    EXPECT_THROW(fresh.load_file(bad_path), check_error);
  };

  {  // wrong magic
    std::vector<char> bytes = good;
    bytes[0] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // version skew (version is the u32 after the u64 magic)
    std::vector<char> bytes = good;
    bytes[8] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // flipped payload byte (checksum mismatch; header is 40 bytes)
    std::vector<char> bytes = good;
    bytes[44] ^= 0x01;
    expect_rejected(bytes);
  }
  {  // truncated payload
    std::vector<char> bytes = good;
    bytes.resize(bytes.size() - 1);
    expect_rejected(bytes);
  }
  {  // trailing garbage
    std::vector<char> bytes = good;
    bytes.push_back(0);
    expect_rejected(bytes);
  }
  {  // checkpoint from a differently-configured daemon (config-hash gate)
    daemon other(make_setup(5));
    other.run_rounds(2);
    const std::string other_path =
        testing::TempDir() + "daemon_ckpt_other.bin";
    other.save_file(other_path);
    daemon fresh(make_setup(4));
    EXPECT_THROW(fresh.load_file(other_path), check_error);
  }

  // The pristine file still restores.
  daemon fresh(make_setup(4));
  fresh.load_file(path);
  EXPECT_EQ(fresh.rounds_completed(), 2u);
}

// The config hash covers the market: a checkpoint saved under one SSAM
// rule, budget, α, spillover policy, topology or standing bid set must not
// restore into a daemon that would replay a different horizon. Knobs that
// leave every result unchanged stay out of the hash, so a checkpoint still
// restores across them and resumes byte-identically.
TEST(Daemon, CheckpointConfigHashCoversTheMarket) {
  const std::uint64_t horizon = 4;
  const std::uint64_t boundary = 2;
  daemon straight(make_setup(10));
  std::vector<std::vector<std::uint64_t>> expected(horizon);
  record_rounds(straight, expected);
  straight.run_rounds(horizon);

  daemon first(make_setup(10));
  first.run_rounds(boundary);
  const std::string path = testing::TempDir() + "daemon_ckpt_market.bin";
  first.save_file(path);

  using mutation = void (*)(daemon_setup&);
  const mutation mismatched[] = {
      [](daemon_setup& s) {
        s.market.shard.session.stage.rule =
            auction::payment_rule::critical_value;
      },
      [](daemon_setup& s) {
        s.market.shard.session.stage.critical_value_eps = 1e-6;
      },
      [](daemon_setup& s) {
        s.market.shard.session.stage.payment_budget = 50.0;
      },
      [](daemon_setup& s) { s.market.shard.session.alpha = 2.0; },
      [](daemon_setup& s) {
        s.market.spillover.stage.rule = auction::payment_rule::critical_value;
      },
      [](daemon_setup& s) { s.market.spillover.cost_per_ms = 0.5; },
      [](daemon_setup& s) { s.market.spillover.max_latency = 1.5; },
      [](daemon_setup& s) { s.market.spillover.max_regions = 1; },
      [](daemon_setup& s) { s.topology = edge::topology::ring(kRegions, 2.0); },
      [](daemon_setup& s) { s.standing.regions[1].bids[0].price += 1.0; },
  };
  for (std::size_t i = 0; i < std::size(mismatched); ++i) {
    daemon_setup setup = make_setup(10);
    mismatched[i](setup);
    daemon fresh(std::move(setup));
    EXPECT_NE(fresh.config_hash(), first.config_hash()) << "mutation " << i;
    EXPECT_THROW(fresh.load_file(path), check_error) << "mutation " << i;
  }

  // Output-invariant knobs flipped: the restore is accepted and the rest of
  // the horizon replays byte-identically.
  daemon_setup matched = make_setup(10);
  matched.market.threads = 2;
  matched.market.shard.session.stage.payment_threads = 2;
  matched.market.shard.session.stage.self_audit = true;
  matched.market.shard.session.stage.eager_reference = true;
  matched.market.shard.session.warm_start = false;
  matched.market.spillover.stage.self_audit = true;
  daemon resumed(std::move(matched));
  EXPECT_EQ(resumed.config_hash(), first.config_hash());
  resumed.load_file(path);
  std::vector<std::vector<std::uint64_t>> replay(horizon);
  record_rounds(resumed, replay);
  resumed.run_rounds(horizon - boundary);
  for (std::uint64_t r = boundary; r < horizon; ++r) {
    EXPECT_EQ(replay[r], expected[r]) << "round " << r + 1;
  }
  EXPECT_EQ(save_bytes(resumed), save_bytes(straight));
}

TEST(Daemon, LoadRequiresFreshDaemon) {
  daemon d(make_setup(6));
  d.run_rounds(1);
  const std::string path = testing::TempDir() + "daemon_ckpt_used.bin";
  d.save_file(path);
  EXPECT_THROW(d.load_file(path), check_error);  // already ran a round
}

TEST(Daemon, SellerChurnFailsAndRecoversDeterministically) {
  daemon_config cfg = make_config();
  cfg.scenario.churn_every = 2;
  cfg.scenario.churn_downtime = 4;
  daemon d(make_setup(7, cfg));

  const auto active = [&](std::uint32_t region, std::uint32_t seller) {
    return d.market().region(region).session().seller_active(seller);
  };

  d.run_rounds(2);  // ordinal 1 fails: region 1, seller 0
  EXPECT_FALSE(active(1, 0));
  EXPECT_TRUE(active(0, 0));
  d.run_rounds(2);  // ordinal 2 fails: region 2, seller 0
  EXPECT_FALSE(active(1, 0));
  EXPECT_FALSE(active(2, 0));
  d.run_rounds(2);  // round 6: ordinal 1 recovers, ordinal 3 fails
  EXPECT_TRUE(active(1, 0));
  EXPECT_FALSE(active(2, 0));
  EXPECT_FALSE(active(3, 0));

  // Checkpoint mid-outage: the restored daemon carries the activity flags
  // without replaying the churn schedule.
  const std::string path = testing::TempDir() + "daemon_ckpt_churn.bin";
  d.save_file(path);
  daemon resumed(make_setup(7, cfg));
  EXPECT_TRUE(resumed.market().region(2).session().seller_active(0));
  resumed.load_file(path);
  EXPECT_FALSE(resumed.market().region(2).session().seller_active(0));
  EXPECT_TRUE(resumed.market().region(1).session().seller_active(0));
}

TEST(Daemon, ScenarioRateScaleIsPureAndBounded) {
  const scenario_config off;
  for (std::uint64_t r = 1; r <= 10; ++r) {
    EXPECT_DOUBLE_EQ(scenario_rate_scale(off, r), 1.0);
  }

  scenario_config flash;
  flash.flash_every = 5;
  flash.flash_duration = 2;
  flash.flash_factor = 3.0;
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 1), 3.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 2), 3.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 3), 1.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 5), 1.0);
  EXPECT_DOUBLE_EQ(scenario_rate_scale(flash, 6), 3.0);

  scenario_config diurnal;
  diurnal.diurnal_amplitude = 0.5;
  diurnal.diurnal_period = 4;
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 1), 1.0);  // phase 0
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 2), 1.5);  // peak
  EXPECT_NEAR(scenario_rate_scale(diurnal, 4), 0.5, 1e-12);  // trough
  EXPECT_DOUBLE_EQ(scenario_rate_scale(diurnal, 5),
                   scenario_rate_scale(diurnal, 1));  // periodic

  // Never negative, even with a deep trough and a zero flash factor.
  scenario_config extreme = diurnal;
  extreme.diurnal_amplitude = 0.999;
  extreme.flash_every = 1;
  extreme.flash_factor = 0.0;
  for (std::uint64_t r = 1; r <= 8; ++r) {
    EXPECT_DOUBLE_EQ(scenario_rate_scale(extreme, r), 0.0);
  }
}

TEST(Daemon, FlashCrowdsScaleArrivalsAndZeroFactorSilencesThem) {
  daemon baseline(make_setup(8));
  baseline.run_rounds(4);
  ASSERT_GT(baseline.requests_delivered(), 0u);

  daemon_config surge_cfg = make_config();
  surge_cfg.scenario.flash_every = 1;
  surge_cfg.scenario.flash_duration = 1;
  surge_cfg.scenario.flash_factor = 3.0;
  daemon surge(make_setup(8, surge_cfg));
  surge.run_rounds(4);
  EXPECT_GT(surge.requests_delivered(), baseline.requests_delivered());

  daemon_config quiet_cfg = surge_cfg;
  quiet_cfg.scenario.flash_factor = 0.0;
  daemon quiet(make_setup(8, quiet_cfg));
  quiet.run_rounds(4);
  EXPECT_EQ(quiet.requests_delivered(), 0u);
  EXPECT_EQ(quiet.rounds_completed(), 4u);  // empty rounds still close
}

TEST(Daemon, RejectsInconsistentSetups) {
  {
    daemon_setup s = make_setup(9);
    s.estimator.round_duration = s.config.round_duration + 1.0;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.workload.microservices += 1;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.config.scenario.diurnal_amplitude = 1.5;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
  {
    daemon_setup s = make_setup(9);
    s.config.round_duration = 0.0;
    s.estimator.round_duration = 0.0;
    EXPECT_THROW(daemon{std::move(s)}, check_error);
  }
}

}  // namespace
}  // namespace ecrs::simrun
