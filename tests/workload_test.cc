// Unit tests for workload arrival processes, the generator, and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "workload/arrival.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace ecrs::workload {
namespace {

// ---------------------------------------------------------------- arrivals

TEST(PoissonArrivals, MeanInterarrivalMatchesRate) {
  poisson_arrivals p(4.0);
  rng gen(1);
  running_stats s;
  for (int i = 0; i < 20000; ++i) s.add(p.next_interarrival(0.0, gen));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
  EXPECT_DOUBLE_EQ(p.rate_at(123.0), 4.0);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(poisson_arrivals(0.0), check_error);
}

TEST(DeterministicArrivals, FixedPeriod) {
  deterministic_arrivals d(2.5);
  rng gen(2);
  EXPECT_DOUBLE_EQ(d.next_interarrival(0.0, gen), 2.5);
  EXPECT_DOUBLE_EQ(d.next_interarrival(100.0, gen), 2.5);
  EXPECT_DOUBLE_EQ(d.rate_at(0.0), 0.4);
}

TEST(DiurnalArrivals, RateOscillatesAroundBase) {
  diurnal_arrivals d(10.0, 0.5, 100.0);
  EXPECT_NEAR(d.rate_at(0.0), 10.0, 1e-9);
  EXPECT_NEAR(d.rate_at(25.0), 15.0, 1e-9);  // peak at quarter period
  EXPECT_NEAR(d.rate_at(75.0), 5.0, 1e-9);   // trough at three quarters
}

TEST(DiurnalArrivals, ThinningProducesPositiveGaps) {
  diurnal_arrivals d(10.0, 0.8, 50.0);
  rng gen(3);
  double now = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double gap = d.next_interarrival(now, gen);
    EXPECT_GT(gap, 0.0);
    now += gap;
  }
  // Long-run average rate should be near the base rate.
  EXPECT_NEAR(1000.0 / now, 10.0, 1.5);
}

TEST(DiurnalArrivals, RejectsBadDepth) {
  EXPECT_THROW(diurnal_arrivals(1.0, 1.0, 10.0), check_error);
  EXPECT_THROW(diurnal_arrivals(1.0, -0.1, 10.0), check_error);
}

// --------------------------------------------------------------- generator

TEST(Generator, DeterministicForSameSeed) {
  generator_config cfg;
  cfg.users = 10;
  cfg.microservices = 4;
  cfg.seed = 77;
  generator a(cfg);
  generator b(cfg);
  const auto ra = a.round(0.0, 100.0);
  const auto rb = b.round(0.0, 100.0);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].microservice, rb[i].microservice);
    EXPECT_DOUBLE_EQ(ra[i].arrival_time, rb[i].arrival_time);
  }
}

TEST(Generator, ArrivalsSortedWithinRound) {
  generator_config cfg;
  cfg.users = 50;
  cfg.microservices = 8;
  generator g(cfg);
  const auto batch = g.round(10.0, 60.0);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_LE(batch[i - 1].arrival_time, batch[i].arrival_time);
  }
  for (const request& r : batch) {
    EXPECT_GE(r.arrival_time, 10.0);
    EXPECT_LT(r.arrival_time, 70.0);
    EXPECT_LT(r.microservice, cfg.microservices);
    EXPECT_GT(r.service_demand, 0.0);
  }
}

TEST(Generator, RequestIdsAreUniqueAcrossRounds) {
  generator_config cfg;
  cfg.users = 20;
  cfg.microservices = 5;
  generator g(cfg);
  std::set<std::uint64_t> ids;
  for (int r = 0; r < 3; ++r) {
    for (const request& req : g.round(r * 100.0, 100.0)) {
      EXPECT_TRUE(ids.insert(req.id).second);
    }
  }
}

TEST(Generator, PoissonVolumeMatchesClassMeans) {
  generator_config cfg;
  cfg.users = 100;
  cfg.microservices = 10;
  cfg.sensitive_mean = 5.0;
  cfg.tolerant_mean = 10.0;
  generator g(cfg);
  // Expected ~ users * (5 + 10) per round.
  running_stats per_round;
  for (int r = 0; r < 20; ++r) {
    per_round.add(static_cast<double>(g.round(r * 10.0, 10.0).size()));
  }
  EXPECT_NEAR(per_round.mean(), 1500.0, 60.0);
}

TEST(Generator, QosClassesAssignedByFraction) {
  generator_config cfg;
  cfg.users = 5;
  cfg.microservices = 10;
  cfg.delay_sensitive_fraction = 0.3;
  generator g(cfg);
  int sensitive = 0;
  for (std::uint32_t s = 0; s < cfg.microservices; ++s) {
    if (g.class_of(s) == qos_class::delay_sensitive) ++sensitive;
  }
  EXPECT_EQ(sensitive, 3);
}

TEST(Generator, RequestsTargetMatchingClass) {
  generator_config cfg;
  cfg.users = 30;
  cfg.microservices = 6;
  generator g(cfg);
  for (const request& r : g.round(0.0, 50.0)) {
    EXPECT_EQ(r.qos, g.class_of(r.microservice));
  }
}

TEST(Generator, RoundIntoMatchesRoundExactly) {
  generator_config cfg;
  cfg.users = 40;
  cfg.microservices = 6;
  cfg.seed = 99;
  generator by_value(cfg);
  generator in_place(cfg);
  std::vector<request> batch;
  for (int r = 0; r < 4; ++r) {
    const auto expected = by_value.round(r * 50.0, 50.0);
    in_place.round_into(r * 50.0, 50.0, batch);
    ASSERT_EQ(batch.size(), expected.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].id, expected[i].id);
      EXPECT_EQ(batch[i].user, expected[i].user);
      EXPECT_EQ(batch[i].microservice, expected[i].microservice);
      EXPECT_EQ(batch[i].qos, expected[i].qos);
      EXPECT_EQ(batch[i].arrival_time, expected[i].arrival_time);
      EXPECT_EQ(batch[i].service_demand, expected[i].service_demand);
    }
  }
}

TEST(Generator, RoundIntoReusesCapacityAcrossRounds) {
  generator_config cfg;
  cfg.users = 100;
  cfg.microservices = 10;
  generator g(cfg);
  std::vector<request> batch;
  g.round_into(0.0, 100.0, batch);
  // The first fill reserves from expected_arrivals_per_round() with slack,
  // so steady-state rounds fit in the existing buffer: no reallocation.
  const auto capacity = batch.capacity();
  EXPECT_GE(capacity, batch.size());
  for (int r = 1; r < 10; ++r) {
    g.round_into(r * 100.0, 100.0, batch);
    EXPECT_EQ(batch.capacity(), capacity);
  }
}

TEST(Generator, ExpectedArrivalsPerRoundMatchesEmpiricalMean) {
  generator_config cfg;
  cfg.users = 80;
  cfg.microservices = 8;
  generator g(cfg);
  running_stats per_round;
  std::vector<request> batch;
  for (int r = 0; r < 30; ++r) {
    g.round_into(r * 10.0, 10.0, batch);
    per_round.add(static_cast<double>(batch.size()));
  }
  EXPECT_NEAR(per_round.mean(), g.expected_arrivals_per_round(), 60.0);
}

TEST(Generator, RejectsBadConfig) {
  generator_config cfg;
  cfg.users = 0;
  EXPECT_THROW(generator{cfg}, check_error);
  cfg.users = 1;
  cfg.microservices = 0;
  EXPECT_THROW(generator{cfg}, check_error);
  cfg.microservices = 1;
  cfg.mean_service_demand = 0.0;
  EXPECT_THROW(generator{cfg}, check_error);
}

// ------------------------------------------------------------------- trace

std::vector<request> sample_requests() {
  std::vector<request> reqs;
  for (int i = 0; i < 5; ++i) {
    request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.user = static_cast<std::uint32_t>(i % 3);
    r.microservice = static_cast<std::uint32_t>(i % 2);
    r.qos = i % 2 == 0 ? qos_class::delay_sensitive : qos_class::delay_tolerant;
    r.arrival_time = 1.5 * i;
    r.service_demand = 0.25 + i;
    reqs.push_back(r);
  }
  return reqs;
}

TEST(Trace, RoundTripsThroughStream) {
  const auto original = sample_requests();
  std::stringstream ss;
  write_trace(ss, original);
  const auto restored = read_trace(ss);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].id, original[i].id);
    EXPECT_EQ(restored[i].user, original[i].user);
    EXPECT_EQ(restored[i].microservice, original[i].microservice);
    EXPECT_EQ(restored[i].qos, original[i].qos);
    EXPECT_DOUBLE_EQ(restored[i].arrival_time, original[i].arrival_time);
    EXPECT_DOUBLE_EQ(restored[i].service_demand, original[i].service_demand);
  }
}

TEST(Trace, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(Trace, RejectsMissingHeader) {
  std::stringstream ss("not,a,header\n1,2,3,0,0.0,1.0\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsWrongFieldCount) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\n1,2,3\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsNonNumericFields) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\nx,2,3,0,0.0,1\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, RejectsBadQos) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\n1,2,3,7,0.0,1\n");
  EXPECT_THROW(read_trace(ss), check_error);
}

TEST(Trace, ToleratesCarriageReturnsAndBlankLines) {
  std::stringstream ss(
      "id,user,microservice,qos,arrival_time,service_demand\r\n"
      "1,2,3,0,0.5,1.25\r\n"
      "\n");
  const auto reqs = read_trace(ss);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].id, 1u);
  EXPECT_DOUBLE_EQ(reqs[0].service_demand, 1.25);
}

TEST(Trace, FileRoundTrip) {
  const auto original = sample_requests();
  const std::string path = testing::TempDir() + "/ecrs_trace_test.csv";
  write_trace_file(path, original);
  const auto restored = read_trace_file(path);
  EXPECT_EQ(restored.size(), original.size());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/trace.csv"), check_error);
}

TEST(QosClass, ToStringNames) {
  EXPECT_STREQ(to_string(qos_class::delay_sensitive), "delay_sensitive");
  EXPECT_STREQ(to_string(qos_class::delay_tolerant), "delay_tolerant");
}

// ------------------------------------------------- rate scale + checkpoint

generator_config scaled_config(std::uint64_t seed) {
  generator_config cfg;
  cfg.users = 40;
  cfg.microservices = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(Generator, RateScaleScalesArrivals) {
  generator base(scaled_config(21));
  generator surged(scaled_config(21));
  surged.set_rate_scale(3.0);
  const auto quiet = base.round(0.0, 100.0);
  const auto surge = surged.round(0.0, 100.0);
  ASSERT_GT(quiet.size(), 0u);
  EXPECT_GT(surge.size(), quiet.size());

  generator silenced(scaled_config(21));
  silenced.set_rate_scale(0.0);
  EXPECT_TRUE(silenced.round(0.0, 100.0).empty());

  EXPECT_THROW(base.set_rate_scale(-0.5), ecrs::check_error);
}

TEST(Generator, CheckpointRestoresStreamBitForBit) {
  generator source(scaled_config(22));
  (void)source.round(0.0, 100.0);  // advance the rng past round 1
  source.set_rate_scale(1.5);

  ecrs::checkpoint_writer w;
  source.save(w);
  ecrs::checkpoint_reader r(w.payload());
  generator restored(scaled_config(22));
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_DOUBLE_EQ(restored.rate_scale(), 1.5);

  // The restored generator continues the exact request stream.
  const auto expected = source.round(100.0, 100.0);
  const auto replayed = restored.round(100.0, 100.0);
  ASSERT_EQ(replayed.size(), expected.size());
  ASSERT_GT(expected.size(), 0u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].id, expected[i].id);
    EXPECT_EQ(replayed[i].microservice, expected[i].microservice);
    EXPECT_EQ(replayed[i].region, expected[i].region);
    EXPECT_EQ(replayed[i].qos, expected[i].qos);
    EXPECT_EQ(replayed[i].arrival_time, expected[i].arrival_time);
    EXPECT_EQ(replayed[i].service_demand, expected[i].service_demand);
  }
}

// ------------------------------------------- batch order and golden stream

// Appends every field of every request, doubles as their bit patterns, so
// two batches are equal byte for byte exactly when their payloads are.
void fold(ecrs::checkpoint_writer& w, const std::vector<request>& batch) {
  w.size(batch.size());
  for (const request& q : batch) {
    w.u64(q.id);
    w.u32(q.user);
    w.u32(q.microservice);
    w.u32(q.region);
    w.u8(static_cast<std::uint8_t>(q.qos));
    w.f64(q.arrival_time);
    w.f64(q.service_demand);
  }
}

std::vector<std::uint8_t> bytes_of(const std::vector<request>& batch) {
  ecrs::checkpoint_writer w;
  fold(w, batch);
  return {w.payload().begin(), w.payload().end()};
}

// The oracle: std::sort under the same total order.
std::vector<request> oracle_sorted(std::vector<request> batch) {
  std::sort(batch.begin(), batch.end(), arrives_before);
  return batch;
}

// steady_requests-sized: 6667 users x 15 requests = ~1e5 per round.
generator_config large_config() {
  generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  cfg.seed = 5;
  return cfg;
}

// A generator batch is in arrives_before order and holds every request id
// it drew: the contiguous range after the previous round's.
void expect_ordered_round(const std::vector<request>& batch,
                          std::uint64_t first_id) {
  EXPECT_EQ(bytes_of(batch), bytes_of(oracle_sorted(batch)));
  std::vector<std::uint64_t> ids;
  for (const request& r : batch) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], first_id + i);
  }
}

TEST(ArrivalSorter, MatchesStdSortOracleAtEverySize) {
  generator g(large_config());
  const std::vector<request> round = g.round(600.0, 600.0);
  ASSERT_GT(round.size(), 90000u);
  ecrs::rng shuffle(3);
  arrival_sorter sorter;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{17}, round.size()}) {
    std::vector<request> batch = round;
    shuffle.shuffle(batch);
    batch.resize(n);
    const std::vector<request> expected = oracle_sorted(batch);
    sorter.sort(batch, 600.0, 600.0);
    EXPECT_EQ(bytes_of(batch), bytes_of(expected)) << "n = " << n;
  }
}

TEST(ArrivalSorter, OrdersEqualTimesByQosThenId) {
  // Every request at one of three instants: the whole order rests on the
  // delay-sensitive-first priority and the id tie-break.
  ecrs::rng draw(11);
  std::vector<request> batch(3000);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = i + 1;
    batch[i].qos = draw.bernoulli(0.5) ? qos_class::delay_sensitive
                                       : qos_class::delay_tolerant;
    batch[i].arrival_time = 10.0 + static_cast<double>(draw.uniform_int(0, 2));
  }
  draw.shuffle(batch);
  const std::vector<request> expected = oracle_sorted(batch);
  arrival_sorter sorter;
  sorter.sort(batch, 10.0, 3.0);
  EXPECT_EQ(bytes_of(batch), bytes_of(expected));
}

TEST(ArrivalSorter, CorrectForTimesOutsideTheWindow) {
  // The window only sets the bucket grid: times before or past it clamp
  // into the end buckets, and a window so short that buckets/length
  // overflows to infinity still sorts.
  ecrs::rng draw(12);
  std::vector<request> batch(2000);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = i + 1;
    batch[i].arrival_time = draw.uniform_real(-50.0, 150.0);
  }
  batch[7].arrival_time = 0.0;  // at the window start: 0 * inf = NaN
  const std::vector<request> expected = oracle_sorted(batch);
  arrival_sorter sorter;
  for (const double length : {100.0, 1e-320}) {
    std::vector<request> copy = batch;
    sorter.sort(copy, 0.0, length);
    EXPECT_EQ(bytes_of(copy), bytes_of(expected)) << "length " << length;
  }
  EXPECT_THROW(sorter.sort(batch, 0.0, 0.0), check_error);
}

TEST(Generator, BatchesMatchOracleAtRateScalesZeroAndThree) {
  generator g(large_config());
  std::vector<request> batch;
  std::uint64_t next_id = 1;
  double start = 0.0;
  for (const double scale : {1.0, 0.0, 3.0}) {
    g.set_rate_scale(scale);
    g.round_into(start, 600.0, batch);
    start += 600.0;
    EXPECT_EQ(batch.empty(), scale == 0.0);
    expect_ordered_round(batch, next_id);
    next_id += batch.size();
  }
}

TEST(Generator, EmptyClassFallbackBatchesMatchOracle) {
  for (const double fraction : {0.0, 1.0}) {
    generator_config cfg;
    cfg.users = 200;
    cfg.microservices = 7;
    cfg.delay_sensitive_fraction = fraction;
    generator g(cfg);
    const std::vector<request> batch = g.round(0.0, 60.0);
    ASSERT_FALSE(batch.empty());
    expect_ordered_round(batch, 1);
  }
}

TEST(Generator, ForcedCollisionWindowOrdersTiesByQosThenId) {
  // At 1e12 s the float spacing is ~1.2e-4 s, so a 1e-3 s window holds only
  // ~8 distinct timestamps and almost every request ties with others.
  generator_config cfg;
  cfg.users = 150;
  cfg.microservices = 6;
  generator g(cfg);
  const std::vector<request> batch = g.round(1e12, 1e-3);
  expect_ordered_round(batch, 1);
  std::size_t qos_ties = 0;
  std::size_t id_ties = 0;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    const request& a = batch[i - 1];
    const request& b = batch[i];
    if (a.arrival_time != b.arrival_time) continue;
    if (a.qos != b.qos) {
      EXPECT_EQ(a.qos, qos_class::delay_sensitive);
      ++qos_ties;
    } else {
      EXPECT_LT(a.id, b.id);
      ++id_ties;
    }
  }
  EXPECT_GT(qos_ties, 0u);
  EXPECT_GT(id_ties, 100u);
}

// Every field of the first 8 rounds of a fixed ~1e4-request config, folded
// into one FNV-1a digest. The constant was recorded before the batch sort
// was replaced, so it pins both the rng draws (and their order) and the
// order the batch leaves round_into in.
TEST(Generator, GoldenStreamDigest) {
  generator_config cfg;
  cfg.users = 667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.sensitive_mean_demand = 0.5;
  cfg.tolerant_mean_demand = 2.0;
  cfg.regions = 4;
  cfg.seed = 2019;
  generator g(cfg);
  ecrs::checkpoint_writer w;
  std::vector<request> batch;
  for (int r = 0; r < 8; ++r) {
    g.round_into(r * 600.0, 600.0, batch);
    fold(w, batch);
  }
  EXPECT_EQ(ecrs::fnv1a64(w.payload()), 0x021ce19ebdd4a8faULL);
}

std::vector<std::uint8_t> state_of(const generator& g) {
  ecrs::checkpoint_writer w;
  g.save(w);
  return {w.payload().begin(), w.payload().end()};
}

// round_lanes against round_into on twin generators, round after round:
// the lanes are the stable partition by microservice of the time-sorted
// batch, ids included, and both generators end every round in the same
// saved state.
void expect_lanes_match_round_into(const generator_config& cfg,
                                   std::initializer_list<double> scales) {
  generator sorted(cfg);
  generator laned(cfg);
  std::vector<request> batch;
  request_lanes lanes;
  double start = 0.0;
  for (const double scale : scales) {
    SCOPED_TRACE(testing::Message() << "rate scale " << scale);
    sorted.set_rate_scale(scale);
    laned.set_rate_scale(scale);
    sorted.round_into(start, 600.0, batch);
    laned.round_lanes(start, 600.0, lanes);
    start += 600.0;

    std::vector<request> expected = batch;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const request& a, const request& b) {
                       return a.microservice < b.microservice;
                     });
    EXPECT_EQ(bytes_of(lanes.requests), bytes_of(expected));
    ASSERT_EQ(lanes.lane_count(), cfg.microservices);
    EXPECT_EQ(lanes.offsets.front(), 0u);
    EXPECT_EQ(lanes.offsets.back(), lanes.requests.size());
    for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
      for (const request& r : lanes.lane(m)) ASSERT_EQ(r.microservice, m);
    }
    EXPECT_EQ(state_of(laned), state_of(sorted));
  }
}

TEST(GeneratorLanes, MatchRoundIntoAtSteadyAndFlashSizes) {
  expect_lanes_match_round_into(large_config(), {1.0, 3.0, 0.0, 1.0});
}

TEST(GeneratorLanes, MatchRoundIntoBelowTheFanOutGrain) {
  generator_config cfg;
  cfg.users = 120;  // ~1800 requests: one chunk, generated inline
  cfg.microservices = 9;
  cfg.seed = 8;
  expect_lanes_match_round_into(cfg, {1.0, 2.0});
}

TEST(GeneratorLanes, MatchRoundIntoWithFewerUsersThanChunks) {
  generator_config cfg;
  cfg.users = 3;  // ~27000 requests from 3 users: 3 chunks at most
  cfg.microservices = 11;
  cfg.sensitive_mean = 3000.0;
  cfg.tolerant_mean = 6000.0;
  cfg.seed = 21;
  expect_lanes_match_round_into(cfg, {1.0, 3.0});
}

TEST(GeneratorLanes, MatchRoundIntoWhenAClassIsEmpty) {
  for (const double fraction : {0.0, 1.0}) {
    SCOPED_TRACE(testing::Message() << "sensitive fraction " << fraction);
    generator_config cfg = large_config();
    cfg.delay_sensitive_fraction = fraction;
    expect_lanes_match_round_into(cfg, {1.0});
  }
}

TEST(GeneratorLanes, MatchRoundIntoWithManyLanes) {
  // More services than requests, as in perfbench's wide_market: the
  // (chunk, lane) counters cap the chunk count.
  generator_config cfg;
  cfg.users = 2000;
  cfg.microservices = 100000;
  cfg.regions = 100;
  cfg.seed = 4;
  expect_lanes_match_round_into(cfg, {1.0, 3.0});
}

TEST(ArrivalSorter, SortLanesMatchesStdSortPerLane) {
  ecrs::rng draw(17);
  std::vector<request> requests(5000);
  std::vector<std::size_t> offsets = {0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i + 1;
    requests[i].qos = draw.bernoulli(0.5) ? qos_class::delay_sensitive
                                          : qos_class::delay_tolerant;
    // Coarse times so that ties exercise the qos and id tie-breaks.
    requests[i].arrival_time =
        static_cast<double>(draw.uniform_int(0, 400)) * 0.25;
  }
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{700}, std::size_t{701},
                                std::size_t{4999}, std::size_t{5000}}) {
    offsets.push_back(cut);
  }
  std::vector<request> expected = requests;
  for (std::size_t m = 0; m + 1 < offsets.size(); ++m) {
    std::sort(expected.begin() + static_cast<std::ptrdiff_t>(offsets[m]),
              expected.begin() + static_cast<std::ptrdiff_t>(offsets[m + 1]),
              arrives_before);
  }
  arrival_sorter sorter;
  sorter.sort_lanes(requests, offsets, 0.0, 100.0);
  EXPECT_EQ(bytes_of(requests), bytes_of(expected));
  EXPECT_THROW(sorter.sort_lanes(requests, offsets, 0.0, 0.0), check_error);
  offsets.back() = 4000;
  EXPECT_THROW(sorter.sort_lanes(requests, offsets, 0.0, 100.0), check_error);
}

}  // namespace
}  // namespace ecrs::workload
