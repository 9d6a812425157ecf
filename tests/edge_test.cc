// Unit tests for the edge substrate: microservice queues, max-min fair
// sharing, and the cluster.
#include <gtest/gtest.h>

#include <numeric>

#include "common/check.h"
#include "edge/cluster.h"
#include "edge/fair_share.h"
#include "edge/microservice.h"

namespace ecrs::edge {
namespace {

workload::request make_request(std::uint32_t service, double arrival,
                               double demand) {
  workload::request r;
  static std::uint64_t next_id = 1;
  r.id = next_id++;
  r.microservice = service;
  r.arrival_time = arrival;
  r.service_demand = demand;
  return r;
}

// -------------------------------------------------------------- fair share

TEST(FairShare, UnderloadedGivesEveryoneTheirDemand) {
  const auto alloc = max_min_fair_share({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(alloc[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc[1], 2.0);
  EXPECT_DOUBLE_EQ(alloc[2], 3.0);
}

TEST(FairShare, OverloadedWaterFills) {
  // Capacity 6 over demands {1, 4, 4}: small demand fully served, the rest
  // split the remainder equally.
  const auto alloc = max_min_fair_share({1.0, 4.0, 4.0}, 6.0);
  EXPECT_DOUBLE_EQ(alloc[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc[1], 2.5);
  EXPECT_DOUBLE_EQ(alloc[2], 2.5);
}

TEST(FairShare, NeverExceedsCapacityOrDemand) {
  const std::vector<double> demands = {5.0, 0.5, 7.0, 2.0, 0.0};
  const auto alloc = max_min_fair_share(demands, 4.0);
  double total = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(alloc[i], demands[i] + 1e-12);
    EXPECT_GE(alloc[i], 0.0);
    total += alloc[i];
  }
  EXPECT_LE(total, 4.0 + 1e-9);
}

TEST(FairShare, MaxMinProperty) {
  // Any recipient below its demand must hold at least as much as every
  // other recipient's allocation (the defining max-min property).
  const std::vector<double> demands = {3.0, 8.0, 1.0, 6.0};
  const auto alloc = max_min_fair_share(demands, 10.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (alloc[i] < demands[i] - 1e-9) {
      for (std::size_t j = 0; j < demands.size(); ++j) {
        EXPECT_GE(alloc[i], alloc[j] - 1e-9);
      }
    }
  }
}

TEST(FairShare, EmptyAndZeroCapacity) {
  EXPECT_TRUE(max_min_fair_share({}, 5.0).empty());
  const auto alloc = max_min_fair_share({1.0, 2.0}, 0.0);
  EXPECT_DOUBLE_EQ(alloc[0], 0.0);
  EXPECT_DOUBLE_EQ(alloc[1], 0.0);
}

TEST(FairShare, RejectsNegativeInputs) {
  EXPECT_THROW(max_min_fair_share({-1.0}, 5.0), check_error);
  EXPECT_THROW(max_min_fair_share({1.0}, -5.0), check_error);
}

TEST(EqualShare, SplitsEvenly) {
  const auto alloc = equal_share(4, 10.0);
  ASSERT_EQ(alloc.size(), 4u);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 2.5);
  EXPECT_TRUE(equal_share(0, 10.0).empty());
}

// ------------------------------------------------------------ microservice

TEST(Microservice, ServesQueuedWorkAtAllocationRate) {
  microservice svc(0, workload::qos_class::delay_sensitive);
  svc.set_allocation(2.0);  // 2 resource units
  svc.enqueue(make_request(0, 0.0, 4.0));
  svc.advance(0.0, 1.0);  // serves 2 resource-seconds of the 4 needed
  EXPECT_EQ(svc.total_served(), 0u);
  EXPECT_NEAR(svc.backlog_work(), 2.0, 1e-12);
  svc.advance(1.0, 1.0);  // finishes
  EXPECT_EQ(svc.total_served(), 1u);
  EXPECT_NEAR(svc.backlog_work(), 0.0, 1e-12);
}

TEST(Microservice, FifoCompletionOrderAndWaitTimes) {
  microservice svc(0, workload::qos_class::delay_tolerant);
  svc.set_allocation(1.0);
  svc.enqueue(make_request(0, 0.0, 1.0));
  svc.enqueue(make_request(0, 0.0, 1.0));
  svc.advance(0.0, 2.0);
  const auto stats = svc.end_round(1, 2.0, 1);
  EXPECT_EQ(stats.served, 2u);
  // First completes at t=1 (wait 1), second at t=2 (wait 2).
  EXPECT_NEAR(stats.mean_wait, 1.5, 1e-9);
}

TEST(Microservice, ZeroAllocationServesNothing) {
  microservice svc(3, workload::qos_class::delay_sensitive);
  svc.set_allocation(0.0);
  svc.enqueue(make_request(3, 0.0, 1.0));
  svc.advance(0.0, 10.0);
  EXPECT_EQ(svc.total_served(), 0u);
  EXPECT_DOUBLE_EQ(svc.backlog_work(), 1.0);
}

TEST(Microservice, RejectsMisroutedRequest) {
  microservice svc(1, workload::qos_class::delay_sensitive);
  EXPECT_THROW(svc.enqueue(make_request(2, 0.0, 1.0)), check_error);
}

TEST(Microservice, RoundStatsResetAfterEndRound) {
  microservice svc(0, workload::qos_class::delay_sensitive);
  svc.set_allocation(10.0);
  svc.enqueue(make_request(0, 0.0, 1.0));
  svc.advance(0.0, 1.0);
  const auto first = svc.end_round(1, 1.0, 2);
  EXPECT_EQ(first.received, 1u);
  EXPECT_EQ(first.served, 1u);
  EXPECT_EQ(first.cloud_population, 2u);
  const auto second = svc.end_round(2, 1.0, 2);
  EXPECT_EQ(second.received, 0u);
  EXPECT_EQ(second.served, 0u);
  EXPECT_DOUBLE_EQ(second.utilization, 0.0);
  // Lifetime counters persist.
  EXPECT_EQ(svc.total_served(), 1u);
}

TEST(Microservice, UtilizationReflectsBusyFraction) {
  microservice svc(0, workload::qos_class::delay_sensitive);
  svc.set_allocation(1.0);
  svc.enqueue(make_request(0, 0.0, 2.0));
  svc.advance(0.0, 4.0);  // busy 2 of 4 seconds
  const auto stats = svc.end_round(1, 4.0, 1);
  EXPECT_NEAR(stats.utilization, 0.5, 1e-9);
}

TEST(RoundStats, RequiredAndAchievedRates) {
  round_stats s;
  s.arrived_work = 6.0;
  s.backlog_work = 2.0;
  s.served_work = 4.0;
  EXPECT_DOUBLE_EQ(s.required_rate(2.0), 4.0);
  EXPECT_DOUBLE_EQ(s.achieved_rate(2.0), 2.0);
  EXPECT_THROW(s.required_rate(0.0), check_error);
}

TEST(Microservice, PartialServiceCarriesAcrossRounds) {
  // A request half-served in round 1 completes in round 2; the completion
  // is counted once, in round 2.
  microservice svc(0, workload::qos_class::delay_sensitive);
  svc.set_allocation(1.0);
  svc.enqueue(make_request(0, 0.0, 3.0));
  svc.advance(0.0, 2.0);
  const auto r1 = svc.end_round(1, 2.0, 1);
  EXPECT_EQ(r1.served, 0u);
  EXPECT_NEAR(r1.backlog_work, 1.0, 1e-12);
  svc.advance(2.0, 2.0);
  const auto r2 = svc.end_round(2, 2.0, 1);
  EXPECT_EQ(r2.served, 1u);
  EXPECT_NEAR(r2.backlog_work, 0.0, 1e-12);
  // Sojourn measured from the true arrival, not the round boundary.
  EXPECT_NEAR(r2.mean_wait, 3.0, 1e-9);
}

TEST(Microservice, LastRoundArrivedWorkTracksPreviousRound) {
  microservice svc(0, workload::qos_class::delay_sensitive);
  EXPECT_DOUBLE_EQ(svc.last_round_arrived_work(), 0.0);
  svc.enqueue(make_request(0, 0.0, 2.5));
  (void)svc.end_round(1, 1.0, 1);
  EXPECT_DOUBLE_EQ(svc.last_round_arrived_work(), 2.5);
  (void)svc.end_round(2, 1.0, 1);
  EXPECT_DOUBLE_EQ(svc.last_round_arrived_work(), 0.0);
}

// ----------------------------------------------------------------- cluster

std::vector<workload::qos_class> uniform_qos(std::size_t n) {
  return std::vector<workload::qos_class>(
      n, workload::qos_class::delay_sensitive);
}

TEST(Cluster, PlacesEveryServiceOnExactlyOneCloud) {
  cluster_config cfg;
  cfg.clouds = 4;
  cluster c(cfg, uniform_qos(20));
  EXPECT_EQ(c.microservice_count(), 20u);
  EXPECT_EQ(c.cloud_count(), 4u);
  std::size_t hosted_total = 0;
  for (std::uint32_t l = 0; l < 4; ++l) hosted_total += c.cloud(l).hosted.size();
  EXPECT_EQ(hosted_total, 20u);
  for (std::uint32_t s = 0; s < 20; ++s) {
    const auto cl = c.cloud_of(s);
    const auto& hosted = c.cloud(cl).hosted;
    EXPECT_NE(std::find(hosted.begin(), hosted.end(), s), hosted.end());
  }
}

TEST(Cluster, FairAllocationRespectsCloudCapacity) {
  cluster_config cfg;
  cfg.clouds = 2;
  cfg.capacity_per_cloud = 5.0;
  cluster c(cfg, uniform_qos(10));
  // Load some queues to create demand.
  for (std::uint32_t s = 0; s < 10; ++s) {
    auto r = make_request(s, 0.0, 100.0);
    c.service(s).enqueue(r);
  }
  c.allocate_fair(1.0);
  for (std::uint32_t l = 0; l < 2; ++l) {
    double total = 0.0;
    for (std::uint32_t s : c.cloud(l).hosted) total += c.service(s).allocation();
    EXPECT_LE(total, 5.0 + 1e-9);
  }
}

TEST(Cluster, RouteDeliversToTargets) {
  cluster_config cfg;
  cfg.clouds = 2;
  cluster c(cfg, uniform_qos(3));
  std::vector<workload::request> batch = {make_request(1, 0.0, 1.0),
                                          make_request(1, 0.1, 1.0),
                                          make_request(2, 0.2, 1.0)};
  c.route(batch);
  EXPECT_EQ(c.service(0).queue_length(), 0u);
  EXPECT_EQ(c.service(1).queue_length(), 2u);
  EXPECT_EQ(c.service(2).queue_length(), 1u);
}

TEST(Cluster, RouteRejectsUnknownService) {
  cluster_config cfg;
  cluster c(cfg, uniform_qos(2));
  EXPECT_THROW(c.route({make_request(9, 0.0, 1.0)}), check_error);
}

TEST(Cluster, EndRoundReportsCloudPopulation) {
  cluster_config cfg;
  cfg.clouds = 1;
  cluster c(cfg, uniform_qos(5));
  const auto stats = c.end_round(1, 1.0);
  ASSERT_EQ(stats.size(), 5u);
  for (const auto& s : stats) EXPECT_EQ(s.cloud_population, 5u);
}

TEST(Cluster, AdjustAllocationClampsAtZero) {
  cluster_config cfg;
  cluster c(cfg, uniform_qos(1));
  c.service(0).set_allocation(2.0);
  c.adjust_allocation(0, 3.0);
  EXPECT_DOUBLE_EQ(c.service(0).allocation(), 5.0);
  c.adjust_allocation(0, -100.0);
  EXPECT_DOUBLE_EQ(c.service(0).allocation(), 0.0);
}

TEST(Cluster, FullRoundPipelineDrainsWork) {
  cluster_config cfg;
  cfg.clouds = 2;
  cfg.capacity_per_cloud = 50.0;  // ample capacity
  cluster c(cfg, uniform_qos(4));
  std::vector<workload::request> batch;
  for (std::uint32_t s = 0; s < 4; ++s) {
    batch.push_back(make_request(s, 0.0, 2.0));
  }
  c.route(batch);
  c.allocate_fair(1.0);
  c.advance(0.0, 1.0);
  const auto stats = c.end_round(1, 1.0);
  std::uint64_t served = 0;
  for (const auto& s : stats) served += s.served;
  EXPECT_EQ(served, 4u);
}

TEST(Cluster, RejectsDegenerateConfigs) {
  cluster_config cfg;
  cfg.clouds = 0;
  EXPECT_THROW(cluster(cfg, uniform_qos(1)), check_error);
  cfg.clouds = 1;
  EXPECT_THROW(cluster(cfg, {}), check_error);
  cfg.capacity_per_cloud = 0.0;
  EXPECT_THROW(cluster(cfg, uniform_qos(1)), check_error);
}

// ------------------------------------------------------------- checkpoints

// Every field a round report exposes must restore bit for bit.
void expect_same_stats(const round_stats& a, const round_stats& b) {
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.arrived_work, b.arrived_work);
  EXPECT_EQ(a.served_work, b.served_work);
  EXPECT_EQ(a.backlog_work, b.backlog_work);
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
}

TEST(Microservice, CheckpointRestoresQueueMidService) {
  microservice source(3, workload::qos_class::delay_sensitive);
  source.set_allocation(0.5);
  source.enqueue(make_request(3, 0.0, 2.0));
  source.enqueue(make_request(3, 0.5, 1.5));
  source.advance(0.0, 1.0);  // head request partially served

  ecrs::checkpoint_writer w;
  source.save(w);
  ecrs::checkpoint_reader r(w.payload());
  microservice restored(3, workload::qos_class::delay_sensitive);
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(restored.queue_length(), source.queue_length());
  EXPECT_EQ(restored.backlog_work(), source.backlog_work());
  EXPECT_EQ(restored.allocation(), source.allocation());

  // Identical futures: serve both to completion and compare the round.
  source.advance(1.0, 10.0);
  restored.advance(1.0, 10.0);
  expect_same_stats(source.end_round(1, 11.0, 2),
                    restored.end_round(1, 11.0, 2));

  // Identity is construction-time: a different id/qos rejects the payload.
  ecrs::checkpoint_reader again(w.payload());
  microservice other(4, workload::qos_class::delay_sensitive);
  EXPECT_THROW(other.load(again), check_error);
}

// ------------------------------------------------------------ lane service

std::vector<std::uint8_t> save_bytes(const microservice& svc) {
  ecrs::checkpoint_writer w;
  svc.save(w);
  return {w.payload().begin(), w.payload().end()};
}

// Twin services fed the same rounds, one through enqueue() and one through
// a borrowed lane, each advanced to every arrival and then to the round
// end: their round stats, backlog, queue length and checkpoint bytes agree
// bit for bit after every round. Each round's arrivals lie in
// [r * length, (r + 1) * length), in arrival order.
void expect_lane_matches_enqueue(
    double allocation,
    const std::vector<std::vector<workload::request>>& rounds,
    double length) {
  microservice copied(0, workload::qos_class::delay_tolerant);
  microservice laned(0, workload::qos_class::delay_tolerant);
  copied.set_allocation(allocation);
  laned.set_allocation(allocation);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "round " << r + 1);
    const double start = static_cast<double>(r) * length;
    const double end = static_cast<double>(r + 1) * length;
    double copied_mark = start;
    double laned_mark = start;
    laned.open_lane(rounds[r]);
    for (const workload::request& q : rounds[r]) {
      if (q.arrival_time > copied_mark) {
        copied.advance(copied_mark, q.arrival_time - copied_mark);
        laned.advance(laned_mark, q.arrival_time - laned_mark);
        copied_mark = laned_mark = q.arrival_time;
      }
      copied.enqueue(q);
      laned.admit_next();
      ASSERT_EQ(laned.queue_length(), copied.queue_length());
      ASSERT_EQ(laned.backlog_work(), copied.backlog_work());
    }
    copied.advance(copied_mark, end - copied_mark);
    laned.advance(laned_mark, end - laned_mark);
    EXPECT_EQ(laned.queue_length(), copied.queue_length());
    EXPECT_EQ(laned.backlog_work(), copied.backlog_work());
    laned.close_lane();
    EXPECT_EQ(laned.queue_length(), copied.queue_length());
    EXPECT_EQ(laned.backlog_work(), copied.backlog_work());
    expect_same_stats(laned.end_round(r + 1, length, 1),
                      copied.end_round(r + 1, length, 1));
    EXPECT_EQ(save_bytes(laned), save_bytes(copied));
  }
}

// `count` arrivals per round, spread over each round of `length` seconds,
// with demands cycling through `demands`.
std::vector<std::vector<workload::request>> lane_rounds(
    std::size_t rounds, std::size_t count, double length,
    std::initializer_list<double> demands) {
  std::vector<std::vector<workload::request>> out(rounds);
  std::size_t k = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < count; ++i, ++k) {
      const double t = (static_cast<double>(r) +
                        static_cast<double>(i) / static_cast<double>(count)) *
                       length;
      out[r].push_back(make_request(0, t, demands.begin()[k % demands.size()]));
    }
  }
  return out;
}

TEST(MicroserviceLane, MatchesEnqueueAtZeroAllocation) {
  // Nothing is served: every lane entry moves to the owned queue.
  expect_lane_matches_enqueue(0.0, lane_rounds(3, 5, 10.0, {1.0, 2.5}), 10.0);
}

TEST(MicroserviceLane, MatchesEnqueueWithAPartlyServedHeadAcrossRounds) {
  // One 7-second request per 10-second round at rate 0.5: the lane's head
  // is partly served when the round closes and finishes in the next.
  expect_lane_matches_enqueue(0.5, lane_rounds(4, 1, 10.0, {7.0}), 10.0);
}

TEST(MicroserviceLane, MatchesEnqueueBehindAnOwnedBacklog) {
  // ~1.6x overload: each round's lane queues behind the carried backlog,
  // whose head is itself partly served; a drained round ends the run.
  std::vector<std::vector<workload::request>> rounds =
      lane_rounds(4, 8, 10.0, {1.5, 0.25, 3.0, 0.7});
  rounds.push_back({});
  expect_lane_matches_enqueue(1.0, rounds, 10.0);
}

TEST(MicroserviceLane, MatchesEnqueueWhenTheLaneDrains) {
  expect_lane_matches_enqueue(50.0, lane_rounds(3, 20, 10.0, {0.3, 1.1}),
                              10.0);
}

TEST(MicroserviceLane, GuardsTheBorrowedLane) {
  microservice svc(0, workload::qos_class::delay_sensitive);
  const std::vector<workload::request> lane = {make_request(0, 0.0, 1.0),
                                               make_request(0, 0.5, 1.0)};
  EXPECT_THROW(svc.admit_next(), check_error);
  EXPECT_THROW(svc.close_lane(), check_error);
  svc.open_lane(lane);
  EXPECT_THROW(svc.open_lane(lane), check_error);
  EXPECT_THROW(svc.enqueue(make_request(0, 0.0, 1.0)), check_error);
  ecrs::checkpoint_writer w;
  EXPECT_THROW(svc.save(w), check_error);
  svc.admit_next();
  EXPECT_THROW(svc.close_lane(), check_error);  // one entry not admitted
  svc.admit_next();
  EXPECT_THROW(svc.admit_next(), check_error);
  svc.close_lane();
  EXPECT_EQ(svc.queue_length(), 2u);
  svc.save(w);
  const std::vector<workload::request> misrouted = {make_request(1, 0.0, 1.0)};
  svc.open_lane(misrouted);
  EXPECT_THROW(svc.admit_next(), check_error);
}

TEST(Cluster, CheckpointRoundTripMatchesStraightRun) {
  cluster_config cfg;
  cfg.clouds = 3;
  cfg.seed = 11;
  cluster source(cfg, uniform_qos(6));
  std::vector<workload::request> batch;
  for (std::uint32_t m = 0; m < 6; ++m) {
    batch.push_back(make_request(m, 0.25 * m, 1.0 + 0.5 * m));
  }
  source.route(batch);
  source.advance(0.0, 2.0);

  ecrs::checkpoint_writer w;
  source.save(w);
  ecrs::checkpoint_reader r(w.payload());
  cluster restored(cfg, uniform_qos(6));
  restored.load(r);
  EXPECT_TRUE(r.exhausted());

  source.advance(2.0, 3.0);
  restored.advance(2.0, 3.0);
  const auto source_stats = source.end_round(1, 5.0);
  const auto restored_stats = restored.end_round(1, 5.0);
  ASSERT_EQ(source_stats.size(), restored_stats.size());
  for (std::size_t m = 0; m < source_stats.size(); ++m) {
    expect_same_stats(source_stats[m], restored_stats[m]);
  }

  // A differently-shaped cluster rejects the payload.
  ecrs::checkpoint_reader again(w.payload());
  cluster smaller(cfg, uniform_qos(5));
  EXPECT_THROW(smaller.load(again), check_error);
}

}  // namespace
}  // namespace ecrs::edge
