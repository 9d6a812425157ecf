// Sharded marketplace tests (DESIGN.md §12): region-aware generation, the
// global<->local id map, the mailbox drain order, shard/spillover behavior
// on handcrafted markets, and the byte-identity acceptance gate — a
// marketplace horizon must be bitwise identical across thread counts
// {1, 2, hw, 0} and, with spillover disabled, identical to composing plain
// msoa_sessions serially.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "common/check.h"
#include "common/rng.h"
#include "edge/topology.h"
#include "harness/experiments.h"
#include "market/ingest.h"
#include "market/mailbox.h"
#include "market/marketplace.h"
#include "market/region_map.h"
#include "market/spillover.h"
#include "workload/request.h"

namespace ecrs {
namespace {

using market::marketplace;
using market::marketplace_options;
using market::marketplace_round;
using market::message;
using market::post_office;

// ------------------------------------------------- region-aware generation

TEST(RegionalGen, HonorsPerRegionCounts) {
  auction::instance_config stage;
  stage.sellers = 4;
  stage.demanders = 3;
  auction::regional_config regional;
  regional.regions = 3;
  regional.sellers_per_region = {4, 1, 2};
  regional.demanders_per_region = {3, 2, 1};
  rng gen(7);
  const auto inst = auction::random_regional_instance(stage, regional, gen);
  ASSERT_EQ(inst.region_count(), 3u);
  inst.validate();
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(inst.regions[r].demanders(), regional.demanders_per_region[r]);
    EXPECT_EQ(inst.regions[r].seller_count(),
              regional.sellers_per_region[r]);
  }
}

TEST(RegionalGen, RegionsAreIndependentSubstreams) {
  // Region r draws from gen.fork(r): adding regions must not perturb the
  // existing ones, and the same seed must reproduce them exactly.
  auction::instance_config stage;
  stage.sellers = 5;
  stage.demanders = 3;
  auction::regional_config three;
  three.regions = 3;
  auction::regional_config five;
  five.regions = 5;
  rng gen_a(11);
  rng gen_b(11);
  const auto small = auction::random_regional_instance(stage, three, gen_a);
  const auto large = auction::random_regional_instance(stage, five, gen_b);
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(small.regions[r].bids.size(), large.regions[r].bids.size());
    EXPECT_EQ(small.regions[r].requirements, large.regions[r].requirements);
    for (std::size_t b = 0; b < small.regions[r].bids.size(); ++b) {
      EXPECT_EQ(small.regions[r].bids[b].coverage,
                large.regions[r].bids[b].coverage);
      EXPECT_EQ(small.regions[r].bids[b].price,
                large.regions[r].bids[b].price);
    }
  }
}

TEST(RegionalGen, DemandScaleInflatesRequirements) {
  auction::instance_config stage;
  stage.sellers = 5;
  stage.demanders = 4;
  auction::regional_config flat;
  flat.regions = 2;
  auction::regional_config scaled = flat;
  scaled.demand_scale = 1.5;
  rng gen_a(3);
  rng gen_b(3);
  const auto base = auction::random_regional_instance(stage, flat, gen_a);
  const auto hot = auction::random_regional_instance(stage, scaled, gen_b);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t k = 0; k < base.regions[r].requirements.size(); ++k) {
      EXPECT_GE(hot.regions[r].requirements[k],
                base.regions[r].requirements[k]);
    }
  }
}

// ------------------------------------------------------------- region map

TEST(RegionMap, GlobalLocalRoundTrip) {
  const market::region_map map({2, 0, 3}, {1, 4, 0});
  EXPECT_EQ(map.regions(), 3u);
  EXPECT_EQ(map.seller_count(), 5u);
  EXPECT_EQ(map.demander_count(), 5u);
  EXPECT_EQ(map.sellers_in(1), 0u);
  for (std::uint32_t r = 0; r < map.regions(); ++r) {
    for (std::uint32_t s = 0; s < map.sellers_in(r); ++s) {
      const std::uint32_t g = map.global_seller(r, s);
      EXPECT_EQ(map.region_of_seller(g), r);
      EXPECT_EQ(map.local_seller(g), s);
    }
    for (std::uint32_t k = 0; k < map.demanders_in(r); ++k) {
      const std::uint32_t g = map.global_demander(r, k);
      EXPECT_EQ(map.region_of_demander(g), r);
      EXPECT_EQ(map.local_demander(g), k);
    }
  }
}

TEST(RegionMap, PartitionDropsCrossRegionCoverage) {
  // Two sellers (regions 0, 1), three demanders (0, 1, 1). Seller 0's bid
  // covers demanders of both regions: the foreign entries are dropped.
  auction::single_stage_instance global;
  global.requirements = {4, 6, 2};
  auction::bid b0;
  b0.seller = 0;
  b0.coverage = {0, 1, 2};
  b0.amount = 5;
  b0.price = 10.0;
  auction::bid b1;
  b1.seller = 1;
  b1.index = 1;
  b1.coverage = {1, 2};
  b1.amount = 7;
  b1.price = 9.0;
  global.bids = {b0, b1};

  const std::vector<std::uint32_t> seller_region = {0, 1};
  const std::vector<std::uint32_t> demander_region = {0, 1, 1};
  const auto part =
      market::partition(global, 2, seller_region, demander_region);
  EXPECT_EQ(part.dropped_coverage, 2u);  // b0 loses demanders 1 and 2
  EXPECT_EQ(part.dropped_bids, 0u);
  ASSERT_EQ(part.shards.region_count(), 2u);
  ASSERT_EQ(part.shards.regions[0].bids.size(), 1u);
  EXPECT_EQ(part.shards.regions[0].bids[0].coverage,
            (std::vector<auction::demander_id>{0}));
  ASSERT_EQ(part.shards.regions[1].bids.size(), 1u);
  EXPECT_EQ(part.shards.regions[1].bids[0].coverage,
            (std::vector<auction::demander_id>{0, 1}));
  EXPECT_EQ(part.shards.regions[1].requirements,
            (std::vector<auction::units>{6, 2}));
  EXPECT_EQ(part.map.global_demander(1, 0), 1u);
}

// ---------------------------------------------------------------- mailbox

TEST(Mailbox, DrainsOrderedByToFromSequence) {
  post_office po(3);
  const auto make = [](std::uint32_t from, std::uint32_t to,
                       std::uint32_t tag) {
    message m;
    m.type = message::kind::spill_grant;
    m.from = from;
    m.to = to;
    m.seller = tag;  // tag rides along to observe the order
    return m;
  };
  // Posted "out of order" on purpose.
  po.post(make(2, 0, 1));
  po.post(make(0, 3, 2));
  po.post(make(2, 0, 3));
  po.post(make(1, 0, 4));
  po.post(make(0, 0, 5));
  EXPECT_EQ(po.pending(), 5u);

  std::vector<std::uint32_t> order;
  po.drain([&](const message& m) { order.push_back(m.seller); });
  // to=0: from 0 (tag 5), from 1 (tag 4), from 2 in post order (1, 3);
  // then to=3 (coordinator): tag 2.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 4, 1, 3, 2}));
  EXPECT_EQ(po.pending(), 0u);
}

// ------------------------------------------------------ shard + spillover

// Two regions on a unit ring: region 1 has demand and no sellers, region 0
// has an idle seller. The marketplace must route the deficit through a
// spill request, re-auction it against region 0's spare bid at the
// latency-surcharged price, and charge the helper's capacity.
TEST(Spillover, CoversForeignDeficitAtSurchargedPrice) {
  edge::topology topo = edge::topology::ring(2);

  auction::regional_instance round;
  round.regions.resize(2);
  auction::single_stage_instance& helper = round.regions[0];
  helper.requirements = {0};  // nothing needed locally
  auction::bid spare;
  spare.seller = 0;
  spare.coverage = {0};
  spare.amount = 10;
  spare.price = 4.0;
  helper.bids = {spare};
  auction::single_stage_instance& needy = round.regions[1];
  needy.requirements = {5};  // no local bids at all

  marketplace_options options;
  options.threads = 1;
  options.spillover.cost_per_ms = 0.05;
  marketplace mkt(topo, {{{/*capacity=*/3, 1, 1}}, {}}, options);

  const marketplace_round result = mkt.run_round(round);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.unmet_units, 0);
  ASSERT_EQ(result.spillover.awards.size(), 1u);
  const market::spill_award& award = result.spillover.awards[0];
  EXPECT_EQ(award.demand_region, 1u);
  EXPECT_EQ(award.helper_region, 0u);
  EXPECT_EQ(award.seller, 0u);
  EXPECT_EQ(std::vector<auction::demander_id>(award.covered.begin(),
                                              award.covered.end()),
            (std::vector<auction::demander_id>{0}));
  EXPECT_DOUBLE_EQ(award.latency, 1.0);
  // ask = 4.0 + transfer_cost(1ms * 0.05/unit/ms) * 10 units * 1 demander.
  EXPECT_DOUBLE_EQ(award.ask, 4.5);
  EXPECT_DOUBLE_EQ(award.payment, 4.5);  // no competitor: pay-as-bid
  // The helper's lifetime capacity was charged with the bid's weight.
  EXPECT_EQ(mkt.region(0).session().capacity_used(0), 1);
  ASSERT_EQ(result.spillover.regions.size(), 1u);
  EXPECT_EQ(result.spillover.regions[0].requested, 5);
  EXPECT_EQ(result.spillover.regions[0].granted, 5);
}

TEST(Spillover, LatencyBudgetAndRegionCapBound) {
  edge::topology topo = edge::topology::ring(2);

  auction::regional_instance round;
  round.regions.resize(2);
  round.regions[0].requirements = {0};
  auction::bid spare;
  spare.seller = 0;
  spare.coverage = {0};
  spare.amount = 10;
  spare.price = 4.0;
  round.regions[0].bids = {spare};
  round.regions[1].requirements = {5};

  // The only helper sits at latency 1; a budget below that leaves the
  // deficit unmet. Same with max_regions = 0.
  for (const bool use_latency : {true, false}) {
    marketplace_options options;
    options.threads = 1;
    if (use_latency) {
      options.spillover.max_latency = 0.5;
    } else {
      options.spillover.max_regions = 0;
    }
    marketplace mkt(topo, {{{3, 1, 1}}, {}}, options);
    const marketplace_round result = mkt.run_round(round);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.unmet_units, 5);
    EXPECT_TRUE(result.spillover.awards.empty());
    EXPECT_EQ(mkt.region(0).session().capacity_used(0), 0);
  }
}

// ------------------------------------------------- byte-identity (gate)

// Everything a round decided, as exact bit patterns.
void digest_round(const marketplace_round& round,
                  std::vector<std::uint64_t>& out) {
  const auto push_double = [&](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  out.push_back(round.round);
  for (const auto& shard : round.shards) {
    out.push_back(shard.outcome.winner_bids.size());
    for (const std::size_t w : shard.outcome.winner_bids) out.push_back(w);
    for (const double p : shard.outcome.payments) push_double(p);
    for (const double p : shard.outcome.true_prices) push_double(p);
    push_double(shard.outcome.social_cost);
    out.push_back(static_cast<std::uint64_t>(shard.deficit));
  }
  out.push_back(round.spillover.awards.size());
  for (const auto& award : round.spillover.awards) {
    out.push_back(award.demand_region);
    out.push_back(award.helper_region);
    out.push_back(award.seller);
    out.push_back(award.bid_index);
    for (const auto k : award.covered) out.push_back(k);
    out.push_back(static_cast<std::uint64_t>(award.amount));
    push_double(award.ask);
    push_double(award.payment);
  }
  out.push_back(static_cast<std::uint64_t>(round.unmet_units));
  push_double(round.social_cost);
  push_double(round.total_payment);
}

struct market_fixture {
  auction::regional_online_instance input;
  std::vector<auction::regional_instance> rounds;
  edge::topology topo = edge::topology::ring(1);
};

market_fixture spillover_market(std::size_t regions, std::size_t horizon,
                                std::size_t demanders = 3) {
  auction::online_config stage;
  stage.stage.sellers = 6;
  stage.stage.demanders = demanders;
  stage.rounds = horizon;
  auction::regional_config regional;
  regional.regions = regions;
  regional.demand_scale = 1.3;
  rng gen(21);
  market_fixture fx;
  fx.input = auction::random_regional_online_instance(stage, regional, gen);
  fx.rounds.resize(horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    fx.rounds[t].regions.resize(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      fx.rounds[t].regions[r] = fx.input.regions[r].rounds[t];
    }
  }
  fx.topo = edge::topology::ring(static_cast<std::uint32_t>(regions));
  return fx;
}

std::vector<std::uint64_t> run_digest(const market_fixture& fx,
                                      std::size_t threads) {
  marketplace_options options;
  options.threads = threads;
  options.shard.session.stage.payment_threads = 1;
  std::vector<std::vector<auction::seller_profile>> sellers;
  for (const auto& region : fx.input.regions) {
    sellers.push_back(region.sellers);
  }
  marketplace mkt(fx.topo, std::move(sellers), options);
  std::vector<std::uint64_t> digest;
  marketplace_round result;
  for (const auto& round : fx.rounds) {
    mkt.run_round(round, result);
    digest_round(result, digest);
  }
  return digest;
}

TEST(MarketplaceDeterminism, ByteIdenticalAcrossThreadCounts) {
  const market_fixture fx = spillover_market(/*regions=*/8, /*horizon=*/3);
  const auto reference = run_digest(fx, 1);
  EXPECT_FALSE(reference.empty());
  std::vector<std::size_t> counts{2, 0};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 2) counts.push_back(hw);
  for (const std::size_t threads : counts) {
    EXPECT_EQ(run_digest(fx, threads), reference)
        << "digest diverged at threads=" << threads;
  }
}

// Rounds below the fan-out grain (16384 demanders) run inline at any
// thread count, so the test above never reaches the pool. This market is
// just past the grain: the shard fan-out and the spillover assembly run on
// the pool and must still match the serial digest.
TEST(MarketplaceDeterminism, ByteIdenticalAcrossThreadCountsPastTheGrain) {
  const market_fixture fx =
      spillover_market(/*regions=*/4, /*horizon=*/2, /*demanders=*/4100);
  const auto reference = run_digest(fx, 1);
  EXPECT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    EXPECT_EQ(run_digest(fx, threads), reference)
        << "digest diverged at threads=" << threads;
  }
}

TEST(MarketplaceDeterminism, MatchesSerialSessionComposition) {
  // With spillover disabled, a marketplace is exactly one independent
  // msoa_session per region: compose them by hand, serially, and compare
  // every field bit for bit.
  const market_fixture fx = spillover_market(/*regions=*/5, /*horizon=*/3);
  marketplace_options options;
  options.threads = 0;  // parallel marketplace vs hand-rolled serial loop
  options.shard.session.stage.payment_threads = 1;
  options.spillover.max_regions = 0;
  std::vector<std::vector<auction::seller_profile>> sellers;
  std::vector<auction::msoa_session> reference;
  for (const auto& region : fx.input.regions) {
    sellers.push_back(region.sellers);
    reference.emplace_back(region.sellers, options.shard.session);
  }
  marketplace mkt(fx.topo, std::move(sellers), options);

  marketplace_round result;
  for (const auto& round : fx.rounds) {
    mkt.run_round(round, result);
    EXPECT_TRUE(result.spillover.awards.empty());
    for (std::size_t r = 0; r < reference.size(); ++r) {
      const auto expected = reference[r].run_round(round.regions[r]);
      const auto& got = result.shards[r].outcome;
      EXPECT_EQ(got.winner_bids, expected.winner_bids);
      EXPECT_EQ(got.payments, expected.payments);
      EXPECT_EQ(got.true_prices, expected.true_prices);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.social_cost),
                std::bit_cast<std::uint64_t>(expected.social_cost));
      EXPECT_EQ(got.feasible, expected.feasible);
    }
  }
}

TEST(MarketplaceDeterminism, SpilloverReducesUnmetDemand) {
  const market_fixture fx = spillover_market(/*regions=*/8, /*horizon=*/3);
  const auto run_unmet = [&](std::size_t max_regions) {
    marketplace_options options;
    options.threads = 1;
    options.shard.session.stage.payment_threads = 1;
    options.spillover.max_regions = max_regions;
    std::vector<std::vector<auction::seller_profile>> sellers;
    for (const auto& region : fx.input.regions) {
      sellers.push_back(region.sellers);
    }
    marketplace mkt(fx.topo, std::move(sellers), options);
    auction::units unmet = 0;
    marketplace_round result;
    for (const auto& round : fx.rounds) {
      mkt.run_round(round, result);
      unmet += result.unmet_units;
    }
    return unmet;
  };
  const auction::units isolated = run_unmet(0);
  const auction::units assisted = run_unmet(4);
  EXPECT_GT(isolated, 0) << "fixture lost its spillover pressure";
  EXPECT_LT(assisted, isolated);
}

// -------------------------------------------------------- harness driver

TEST(MarketplaceDriver, TableIsThreadCountInvariant) {
  harness::marketplace_config cfg;
  cfg.regions = 6;
  cfg.rounds = 3;
  cfg.threads = 1;
  const auto serial = harness::marketplace_rounds(cfg);
  cfg.threads = 0;
  const auto parallel = harness::marketplace_rounds(cfg);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.rows(), 3u);
}

TEST(MarketplaceDriver, StreamingTableIsThreadCountInvariant) {
  harness::marketplace_config cfg;
  cfg.regions = 5;
  cfg.rounds = 4;
  cfg.streaming = true;
  cfg.users = 40;
  cfg.threads = 1;
  const auto serial = harness::marketplace_rounds(cfg);
  cfg.threads = 0;
  const auto parallel = harness::marketplace_rounds(cfg);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.rows(), 4u);
}

// ------------------------------------------------ seller_best_index (PR 9)

// The old pick_per_seller scan, verbatim semantics: walk the offers in
// emission order, linear-search the picked list for the offer's seller,
// keep the strictly cheaper bid; candidates were then enumerated per
// seller in ascending id order. The indexed rebuild must reproduce both
// the picked set and that order exactly.
TEST(Spillover, SellerBestIndexMatchesLinearScanOnFuzzedOffers) {
  rng gen(20240908);
  market::seller_best_index index;
  for (int trial = 0; trial < 200; ++trial) {
    const auto sellers =
        static_cast<std::size_t>(gen.uniform_int(1, 12));
    const auto bids = static_cast<std::size_t>(gen.uniform_int(0, 40));
    auction::single_stage_instance local;
    local.requirements = {1};
    std::vector<market::spare_offer> offers;
    for (std::size_t i = 0; i < bids; ++i) {
      auction::bid b;
      b.seller = static_cast<auction::seller_id>(
          gen.uniform_int(0, static_cast<std::int64_t>(sellers) - 1));
      b.index = i;
      b.coverage = {0};
      b.amount = 1;
      // Coarse price grid on purpose: ties must resolve to the lowest bid
      // index, like the scan's strict-< replacement rule.
      b.price = static_cast<double>(gen.uniform_int(1, 4));
      local.bids.push_back(std::move(b));
      if (gen.uniform_int(0, 9) < 7) {
        offers.push_back({i, local.bids.back().seller});
      }
    }

    std::vector<std::pair<auction::seller_id, std::size_t>> picked;
    for (const market::spare_offer& offer : offers) {
      const auto it =
          std::find_if(picked.begin(), picked.end(), [&](const auto& p) {
            return p.first == offer.seller;
          });
      if (it == picked.end()) {
        picked.emplace_back(offer.seller, offer.bid_index);
      } else if (local.bids[offer.bid_index].price <
                 local.bids[it->second].price) {
        it->second = offer.bid_index;
      }
    }
    std::sort(picked.begin(), picked.end());

    index.build(local, offers, sellers);
    ASSERT_EQ(index.sellers().size(), picked.size()) << "trial " << trial;
    for (std::size_t i = 0; i < picked.size(); ++i) {
      EXPECT_EQ(index.sellers()[i], picked[i].first) << "trial " << trial;
      EXPECT_EQ(index.best_bid(picked[i].first), picked[i].second)
          << "trial " << trial;
    }
    for (auction::seller_id s = 0; s < sellers; ++s) {
      const bool has = std::find_if(picked.begin(), picked.end(),
                                    [&](const auto& p) {
                                      return p.first == s;
                                    }) != picked.end();
      if (!has) {
        EXPECT_EQ(index.best_bid(s), market::kNoSpareBid);
      }
    }
  }
}

// ------------------------------------------------- round_ingestor (PR 9)

market::ingest_config small_ingest_config() {
  market::ingest_config icfg;
  icfg.regions = 2;
  icfg.microservices = 5;  // region 0 hosts {0, 2, 4}, region 1 hosts {1, 3}
  icfg.unit_demand = 2.0;
  return icfg;
}

// Standing bids for small_ingest_config: one seller per region whose bid
// covers every local demander with plenty of amount.
auction::regional_instance small_standing() {
  auction::regional_instance standing;
  standing.regions.resize(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    auction::single_stage_instance& local = standing.regions[r];
    local.requirements.assign(r == 0 ? 3 : 2, 0);
    auction::bid b;
    b.seller = 0;
    for (std::uint32_t k = 0; k < local.requirements.size(); ++k) {
      b.coverage.push_back(k);
    }
    b.amount = 50;
    b.price = 3.0;
    local.bids = {b};
  }
  return standing;
}

workload::request request_for(std::uint32_t microservice, double demand) {
  workload::request q;
  q.microservice = microservice;
  q.region = microservice % 2;
  q.service_demand = demand;
  return q;
}

TEST(Ingest, QuantizeDemandClampsThenScales) {
  market::ingest_config icfg;
  icfg.unit_demand = 2.0;
  EXPECT_EQ(market::quantize_demand(0.0, icfg, market::kNoSupplyCap), 0);
  EXPECT_EQ(market::quantize_demand(-1.0, icfg, market::kNoSupplyCap), 0);
  EXPECT_EQ(market::quantize_demand(0.1, icfg, market::kNoSupplyCap), 1);
  EXPECT_EQ(market::quantize_demand(7.9, icfg, market::kNoSupplyCap), 4);
  icfg.max_requirement = 3;
  EXPECT_EQ(market::quantize_demand(7.9, icfg, market::kNoSupplyCap), 3);
  EXPECT_EQ(market::quantize_demand(7.9, icfg, 2), 2);  // supply cap wins
  icfg.demand_scale = 1.25;  // applied after both clamps, ceil
  EXPECT_EQ(market::quantize_demand(7.9, icfg, 2), 3);
  EXPECT_EQ(market::quantize_demand(7.9, icfg, market::kNoSupplyCap), 4);
}

TEST(Ingest, PlacementAndSupplyCaps) {
  market::ingest_config icfg = small_ingest_config();
  icfg.supply_margin = 0.5;
  const market::round_ingestor ing(icfg, small_standing());
  EXPECT_EQ(ing.demanders_in(0), 3u);
  EXPECT_EQ(ing.demanders_in(1), 2u);
  EXPECT_EQ(ing.region_of(3), 1u);
  EXPECT_EQ(ing.local_demander(3), 1u);
  // guaranteed_supply = the seller's min bid amount (50); cap = floor(.5*50).
  EXPECT_EQ(ing.supply_cap(0, 0), 25);
  EXPECT_EQ(ing.supply_cap(1, 1), 25);
}

TEST(Ingest, MatchesManualQuantization) {
  const market::ingest_config icfg = small_ingest_config();
  market::round_ingestor ing(icfg, small_standing());
  const std::vector<workload::request> batch = {
      request_for(0, 1.5), request_for(3, 4.0), request_for(0, 2.5),
      request_for(4, 0.2), request_for(1, 6.0)};
  const auction::regional_instance& round = ing.ingest(batch);
  ASSERT_EQ(round.region_count(), 2u);
  // Region 0 hosts microservices 0, 2, 4: ceil(4/2), 0, ceil(0.2/2).
  EXPECT_EQ(round.regions[0].requirements,
            (std::vector<auction::units>{2, 0, 1}));
  // Region 1 hosts microservices 1, 3: ceil(6/2), ceil(4/2).
  EXPECT_EQ(round.regions[1].requirements,
            (std::vector<auction::units>{3, 2}));
  // Accumulators were reset: an empty next round quantizes to zero.
  ing.accumulate({});
  const auction::regional_instance& next = ing.finalize();
  EXPECT_EQ(next.regions[0].requirements,
            (std::vector<auction::units>{0, 0, 0}));
}

TEST(Ingest, SubBatchAccumulationMatchesWholeBatch) {
  const market::ingest_config icfg = small_ingest_config();
  rng gen(5150);
  std::vector<workload::request> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(request_for(
        static_cast<std::uint32_t>(gen.uniform_int(0, 4)),
        static_cast<double>(gen.uniform_int(1, 40)) / 8.0));
  }
  market::round_ingestor whole(icfg, small_standing());
  const auction::regional_instance& expect = whole.ingest(batch);

  market::round_ingestor split(icfg, small_standing());
  const std::span<const workload::request> view(batch);
  split.accumulate(view.subspan(0, 20));
  split.accumulate(view.subspan(20, 30));
  split.accumulate(view.subspan(50));
  const auction::regional_instance& got = split.finalize();
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(got.regions[r].requirements, expect.regions[r].requirements);
  }
}

TEST(Ingest, QuantizeIsThreadCountInvariant) {
  market::ingest_config icfg = small_ingest_config();
  icfg.regions = 7;
  icfg.microservices = 61;
  rng gen(99);
  auction::regional_instance standing;
  standing.regions.resize(7);
  for (std::uint32_t r = 0; r < 7; ++r) {
    const std::uint32_t n = r < 61 % 7 ? 9 : 8;  // 61 round-robin over 7
    standing.regions[r].requirements.assign(n, 0);
  }
  std::vector<workload::request> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back(request_for(
        static_cast<std::uint32_t>(gen.uniform_int(0, 60)),
        static_cast<double>(gen.uniform_int(1, 80)) / 16.0));
  }
  icfg.threads = 1;
  market::round_ingestor serial(icfg, standing);
  const auction::regional_instance& a = serial.ingest(batch);
  icfg.threads = 0;
  market::round_ingestor parallel(icfg, std::move(standing));
  const auction::regional_instance& b = parallel.ingest(batch);
  for (std::uint32_t r = 0; r < 7; ++r) {
    EXPECT_EQ(a.regions[r].requirements, b.regions[r].requirements);
  }
}

}  // namespace
}  // namespace ecrs
