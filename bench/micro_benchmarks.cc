// Google-benchmark microbenchmarks for the performance-critical kernels:
// SSAM winner selection (Theorem 2's polynomial-time claim, paper Fig. 4b),
// the exact reference solvers, the simplex, the DES core, and the workload
// generator.
#include <benchmark/benchmark.h>

#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/local_search.h"
#include "auction/msoa.h"
#include "auction/ssam.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "demand/estimator.h"
#include "des/simulator.h"
#include "edge/cluster.h"
#include "edge/fair_share.h"
#include "lp/simplex.h"
#include "simrun/delivery.h"
#include "workload/generator.h"

namespace {

ecrs::auction::single_stage_instance make_instance(std::size_t sellers,
                                                   std::size_t demanders,
                                                   std::size_t bids) {
  ecrs::rng gen(42);
  ecrs::auction::instance_config cfg;
  cfg.sellers = sellers;
  cfg.demanders = demanders;
  cfg.bids_per_seller = bids;
  return ecrs::auction::random_instance(cfg, gen);
}

// Before/after pair: the original eager O(n²·m) selection scan vs the
// compiled lazy loop that greedy_selection routes through.
void BM_SsamSelectionEager(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::eager_greedy_selection(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsamSelectionEager)->RangeMultiplier(2)->Range(25, 400)->Complexity();

void BM_SsamSelectionLazy(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::greedy_selection(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SsamSelectionLazy)->RangeMultiplier(2)->Range(25, 400)->Complexity();

// The full runner_up mechanism, which selects with the compiled eager scan
// (the BENCH_pr2 regression fix).
void BM_SsamRunnerUpAuto(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst));
  }
}
BENCHMARK(BM_SsamRunnerUpAuto)->Arg(100)->Arg(400);

// Allocation-reuse pair: the same mechanism call with and without a
// persistent ssam_scratch (what msoa_session and the sweep engine thread
// through every call).
void BM_SsamFreshWorkspace(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, {}, nullptr));
  }
}
BENCHMARK(BM_SsamFreshWorkspace)->Arg(100)->Arg(400);

void BM_SsamPersistentWorkspace(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  ecrs::auction::ssam_scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, {}, &scratch));
  }
}
BENCHMARK(BM_SsamPersistentWorkspace)->Arg(100)->Arg(400);

void BM_LocalSearchImprovement(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::improve_selection(inst));
  }
}
BENCHMARK(BM_LocalSearchImprovement)->Arg(25)->Arg(100);

void BM_SsamFullMechanism(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst));
  }
}
BENCHMARK(BM_SsamFullMechanism)->Arg(25)->Arg(100)->Arg(400);

void BM_SsamCriticalValuePayments(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 3, 2);
  ecrs::auction::ssam_options opts;
  opts.rule = ecrs::auction::payment_rule::critical_value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, opts));
  }
}
BENCHMARK(BM_SsamCriticalValuePayments)->Arg(10)->Arg(25);

// Before/after pair for the full critical-value mechanism at the paper's
// largest single-round size (75 sellers × 5 bids): the eager reference
// (eager rescans, full probe auctions, serial payments) vs the compiled
// default (lazy loop, trajectory probes, parallel payments). Both runs are
// verified
// to produce identical winner sequences and payments (the bisection
// tolerance is shared) before timing starts.
const ecrs::auction::single_stage_instance& critical_value_75x5_instance() {
  static const auto inst = make_instance(75, 5, 5);
  return inst;
}

void verify_eager_lazy_equivalence(benchmark::State& state,
                                   const ecrs::auction::ssam_result& eager,
                                   const ecrs::auction::ssam_result& lazy) {
  if (eager.winners.size() != lazy.winners.size()) {
    state.SkipWithError("eager/lazy winner counts diverged");
    return;
  }
  for (std::size_t i = 0; i < eager.winners.size(); ++i) {
    if (eager.winners[i].bid_index != lazy.winners[i].bid_index ||
        eager.winners[i].payment != lazy.winners[i].payment) {
      state.SkipWithError("eager/lazy winners or payments diverged");
      return;
    }
  }
}

void BM_SsamCriticalValue75x5Eager(benchmark::State& state) {
  const auto& inst = critical_value_75x5_instance();
  ecrs::auction::ssam_options before;
  before.rule = ecrs::auction::payment_rule::critical_value;
  before.eager_reference = true;
  before.payment_threads = 1;
  ecrs::auction::ssam_options after;
  after.rule = ecrs::auction::payment_rule::critical_value;
  verify_eager_lazy_equivalence(state, ecrs::auction::run_ssam(inst, before),
                                ecrs::auction::run_ssam(inst, after));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, before));
  }
}
BENCHMARK(BM_SsamCriticalValue75x5Eager);

void BM_SsamCriticalValue75x5Lazy(benchmark::State& state) {
  const auto& inst = critical_value_75x5_instance();
  ecrs::auction::ssam_options after;
  after.rule = ecrs::auction::payment_rule::critical_value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_ssam(inst, after));
  }
}
BENCHMARK(BM_SsamCriticalValue75x5Lazy);

void BM_ExactDp(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::solve_exact(inst));
  }
}
BENCHMARK(BM_ExactDp)->Arg(10)->Arg(25)->Arg(50);

void BM_ExactBranchAndBound(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::solve_exact(inst));
  }
}
BENCHMARK(BM_ExactBranchAndBound)->Arg(8)->Arg(12);

void BM_LpBound(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::lp_bound(inst));
  }
}
BENCHMARK(BM_LpBound)->Arg(25)->Arg(75);

void BM_MsoaHorizon(benchmark::State& state) {
  ecrs::rng gen(7);
  ecrs::auction::online_config cfg;
  cfg.stage.sellers = 25;
  cfg.stage.demanders = 5;
  cfg.rounds = static_cast<std::size_t>(state.range(0));
  const auto inst = ecrs::auction::random_online_instance(cfg, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::auction::run_msoa(inst));
  }
}
BENCHMARK(BM_MsoaHorizon)->Arg(5)->Arg(10)->Arg(15);

void BM_SimplexRandomCover(benchmark::State& state) {
  ecrs::rng gen(3);
  ecrs::lp::model m;
  const auto vars = static_cast<std::size_t>(state.range(0));
  for (std::size_t v = 0; v < vars; ++v) {
    m.add_variable(gen.uniform_real(1.0, 10.0));
  }
  for (std::size_t r = 0; r < vars / 2; ++r) {
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t v = 0; v < vars; ++v) {
      if (gen.bernoulli(0.3)) row.emplace_back(v, gen.uniform_real(0.5, 2.0));
    }
    if (row.empty()) row.emplace_back(0, 1.0);
    m.add_constraint(row, ecrs::lp::row_sense::ge, gen.uniform_real(1.0, 5.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::lp::solve(m));
  }
}
BENCHMARK(BM_SimplexRandomCover)->Arg(50)->Arg(200);

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    ecrs::des::simulator sim;
    ecrs::rng gen(1);
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(gen.uniform_real(0.0, 1000.0), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
}
BENCHMARK(BM_DesEventThroughput);

void BM_WorkloadRound(benchmark::State& state) {
  ecrs::workload::generator_config cfg;
  cfg.users = 300;
  cfg.microservices = 25;
  ecrs::workload::generator gen(cfg);
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.round(now, 600.0));
    now += 600.0;
  }
}
BENCHMARK(BM_WorkloadRound);

// round_into at the daemon's size (6667 users x 32 services, ~1e5 requests
// per round at rate scale 1, ~3e5 in a 3x flash round), refilling one
// reused buffer as simrun::daemon does.
void BM_WorkloadRoundInto(benchmark::State& state) {
  ecrs::workload::generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  ecrs::workload::generator gen(cfg);
  gen.set_rate_scale(static_cast<double>(state.range(0)));
  std::vector<ecrs::workload::request> batch;
  double now = 0.0;
  for (auto _ : state) {
    gen.round_into(now, 600.0, batch);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
    now += 600.0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_WorkloadRoundInto)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

// The same rounds generated lane-major (round_lanes), as simrun::daemon
// generates them: the count walk, the parallel replay and the per-lane
// sort, with no global sort.
void BM_WorkloadRoundLanes(benchmark::State& state) {
  ecrs::workload::generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  ecrs::workload::generator gen(cfg);
  gen.set_rate_scale(static_cast<double>(state.range(0)));
  ecrs::workload::request_lanes lanes;
  double now = 0.0;
  for (auto _ : state) {
    gen.round_lanes(now, 600.0, lanes);
    benchmark::DoNotOptimize(lanes.requests.data());
    benchmark::ClobberMemory();
    now += 600.0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes.requests.size()));
}
BENCHMARK(BM_WorkloadRoundLanes)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Fork-join latency of the shared pool: an empty fan-out over the pool's
// width, so the caller and width - 1 woken workers each claim an index.
void BM_ThreadPoolForkJoin(benchmark::State& state) {
  ecrs::thread_pool& pool = ecrs::thread_pool::shared();
  const std::size_t width = pool.size();
  const auto touch = [](std::size_t i) { benchmark::DoNotOptimize(i); };
  for (auto _ : state) {
    pool.parallel_for(width, touch);
  }
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_ThreadPoolForkJoin)->UseRealTime();

// One round's delivery at the daemon's size (the BM_WorkloadRoundInto
// round: ~1e5 requests over 32 services in 8 clouds, each service able to
// serve its share). Arg 0: simrun::des_delivery of the time-sorted batch,
// the single-stream DES delivery perfbench's replica keeps as the
// reference path. Arg 1: simrun::batch_delivery of the round's lanes, the
// daemon's per-service fan-out. Generating and closing the round are
// untimed.
void BM_RoundDelivery(benchmark::State& state) {
  ecrs::workload::generator_config cfg;
  cfg.users = 6667;
  cfg.microservices = 32;
  cfg.sensitive_mean = 7.5;
  cfg.tolerant_mean = 7.5;
  cfg.regions = 8;
  ecrs::workload::generator gen(cfg);
  std::vector<ecrs::workload::qos_class> qos;
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    qos.push_back(gen.class_of(m));
  }
  ecrs::edge::cluster_config ccfg;
  ccfg.clouds = 8;
  ecrs::edge::cluster cluster(ccfg, qos);
  for (std::uint32_t m = 0; m < cfg.microservices; ++m) {
    cluster.service(m).set_allocation(6.0);  // ~5.2 arrives per second
  }
  const bool fan_out = state.range(0) == 1;
  ecrs::simrun::des_delivery reference;
  ecrs::simrun::batch_delivery delivery;
  std::vector<ecrs::workload::request> batch;
  ecrs::workload::request_lanes lanes;
  double clock = 0.0;
  std::uint64_t round = 0;
  std::size_t delivered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (fan_out) {
      gen.round_lanes(clock, 600.0, lanes);
    } else {
      gen.round_into(clock, 600.0, batch);
    }
    const double end = clock + 600.0;
    state.ResumeTiming();
    if (fan_out) {
      delivery.deliver_round(cluster, lanes, clock, end);
    } else {
      reference.deliver_round(cluster, batch, clock, end);
    }
    state.PauseTiming();
    delivered += fan_out ? lanes.requests.size() : batch.size();
    benchmark::DoNotOptimize(cluster.end_round(++round, 600.0));
    clock = end;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_RoundDelivery)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MaxMinFairShare(benchmark::State& state) {
  ecrs::rng gen(5);
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
  for (double& d : demands) d = gen.uniform_real(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecrs::edge::max_min_fair_share(demands, 100.0));
  }
}
BENCHMARK(BM_MaxMinFairShare)->Arg(10)->Arg(1000);

void BM_DemandEstimatorRound(benchmark::State& state) {
  ecrs::demand::estimator est(ecrs::demand::make_default_config());
  std::vector<ecrs::edge::round_stats> stats(25);
  for (std::size_t s = 0; s < stats.size(); ++s) {
    stats[s].microservice = static_cast<std::uint32_t>(s);
    stats[s].round = 1;
    stats[s].received = 100;
    stats[s].served = 90;
    stats[s].arrived_work = 100.0;
    stats[s].served_work = 90.0;
    stats[s].backlog_work = 10.0;
    stats[s].allocation = 1.0 + static_cast<double>(s);
    stats[s].utilization = 0.7;
    stats[s].cloud_population = 3;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate_round(stats));
  }
}
BENCHMARK(BM_DemandEstimatorRound);

}  // namespace

BENCHMARK_MAIN();
