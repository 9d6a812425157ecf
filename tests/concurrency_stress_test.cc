// Concurrency stress for the thread pool and the parallel SSAM payment
// fan-out. These tests exist primarily to give ThreadSanitizer real
// interleavings to examine (tools/verify.sh runs them under the `tsan`
// preset with pool sizes 1, 2, and hardware_concurrency); they also assert
// determinism — payments must be bit-for-bit identical for every thread
// count — so they are meaningful in plain and ASan builds too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "auction/instance_gen.h"
#include "auction/properties.h"
#include "auction/ssam.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "edge/topology.h"
#include "harness/experiments.h"
#include "market/mailbox.h"
#include "market/marketplace.h"

namespace ecrs::test_support {
// Operator-new calls so far, process-wide (tests/alloc_counter.cc).
std::uint64_t allocations_now();
}  // namespace ecrs::test_support

namespace ecrs {
namespace {

// Pool sizes the stress matrix covers: serial-ish, minimal contention, and
// whatever the hardware offers (deduplicated; hardware_concurrency may be 1).
std::vector<std::size_t> stress_pool_sizes() {
  std::vector<std::size_t> sizes{1, 2};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 2) sizes.push_back(hw);
  return sizes;
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPoolStress, ConcurrentCallersDisjointSlots) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kItems = 257;
    std::vector<std::vector<int>> out(kCallers, std::vector<int>(kItems, 0));

    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &out, c] {
        for (int repeat = 0; repeat < 8; ++repeat) {
          pool.parallel_for(kItems,
                            [&out, c](std::size_t i) { ++out[c][i]; });
        }
      });
    }
    for (std::thread& t : callers) t.join();

    for (std::size_t c = 0; c < kCallers; ++c) {
      for (std::size_t i = 0; i < kItems; ++i) {
        ASSERT_EQ(out[c][i], 8) << "caller " << c << " slot " << i
                                << " (pool size " << pool_size << ")";
      }
    }
  }
}

TEST(ThreadPoolStress, SharedPoolHammeredFromManyThreads) {
  constexpr std::size_t kCallers = 6;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&total] {
      for (int repeat = 0; repeat < 16; ++repeat) {
        thread_pool::shared().parallel_for(
            64, [&total](std::size_t) {
              total.fetch_add(1, std::memory_order_relaxed);
            });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * 16 * 64);
}

TEST(ThreadPoolStress, NestedParallelForMakesProgress) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    std::atomic<std::size_t> leaves{0};
    pool.parallel_for(8, [&pool, &leaves](std::size_t) {
      pool.parallel_for(8, [&leaves](std::size_t) {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(leaves.load(), 64u) << "pool size " << pool_size;
  }
}

TEST(ThreadPoolStress, ExceptionUnderContentionLeavesPoolUsable) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    for (int repeat = 0; repeat < 4; ++repeat) {
      EXPECT_THROW(
          pool.parallel_for(128,
                            [](std::size_t i) {
                              if (i == 57) ECRS_CHECK_MSG(false, "boom");
                            }),
          check_error);
      // The pool must survive the unwound range and keep serving work.
      std::atomic<std::size_t> done{0};
      pool.parallel_for(32, [&done](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(done.load(), 32u);
    }
  }
}

// The fork-join keeps its job on the caller's stack and references the
// callable, so once the pool's threads exist a parallel_for allocates
// nothing: not plain, not nested, not capped, not from many callers.
TEST(ThreadPoolStress, WarmParallelForAllocatesNothing) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    std::vector<std::atomic<int>> hits(1000);
    const auto bump = [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    };
    const auto nested = [&pool, &bump](std::size_t outer) {
      pool.parallel_for(100, [&bump, outer](std::size_t inner) {
        bump(outer * 100 + inner);
      });
    };
    pool.parallel_for(hits.size(), bump);  // warm: threads are up
    const std::uint64_t before = test_support::allocations_now();
    for (int repeat = 0; repeat < 20; ++repeat) {
      pool.parallel_for(hits.size(), bump);
      pool.parallel_for(10, nested);
      pool.parallel_for(hits.size(), bump, 2);
      pool.parallel_for(1, bump);
    }
    EXPECT_EQ(test_support::allocations_now() - before, 0u)
        << "pool size " << pool_size;
    // Warm-up plus 20 x (plain, nested, capped); index 0 also 20 x alone.
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i == 0 ? 81 : 61) << "index " << i;
    }
  }
}

// Chunked claims: every index of every range size runs exactly once,
// with ranges smaller than, equal to and far larger than the pool.
TEST(ThreadPoolStress, ChunkedClaimsCoverEveryIndexOnce) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, pool_size,
          pool_size + 1, std::size_t{63}, std::size_t{1000},
          std::size_t{4097}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "n " << n << " index " << i << " pool size " << pool_size;
      }
    }
  }
}

// Several callers at once, each fanning out ranges whose items fan out
// again: the nested jobs of every caller share the workers, and every
// leaf slot is written exactly once.
TEST(ThreadPoolStress, NestedChunkedFanOutsFromConcurrentCallers) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kOuter = 13;
    constexpr std::size_t kInner = 37;
    std::vector<std::vector<int>> leaves(
        kCallers, std::vector<int>(kOuter * kInner, 0));
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &leaves, c] {
        for (int repeat = 0; repeat < 4; ++repeat) {
          pool.parallel_for(kOuter, [&pool, &leaves, c](std::size_t o) {
            pool.parallel_for(kInner, [&leaves, c, o](std::size_t i) {
              ++leaves[c][o * kInner + i];
            });
          });
        }
      });
    }
    for (std::thread& t : callers) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      for (const int leaf : leaves[c]) {
        ASSERT_EQ(leaf, 4) << "caller " << c << " pool size " << pool_size;
      }
    }
  }
}

// A throwing index cuts only its own range short: the throwing caller gets
// the exception, concurrent callers of the same pool finish every index,
// and the pool keeps serving.
TEST(ThreadPoolStress, ThrowingIndexLeavesConcurrentCallersWhole) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kItems = 300;
    std::vector<std::size_t> completed(kCallers, 0);
    std::vector<std::size_t> thrown(kCallers, 0);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (int repeat = 0; repeat < 8; ++repeat) {
          std::atomic<std::size_t> done{0};
          try {
            pool.parallel_for(kItems, [&done, c](std::size_t i) {
              if (c % 2 == 1 && i == 150) ECRS_CHECK_MSG(false, "boom");
              done.fetch_add(1, std::memory_order_relaxed);
            });
            if (done.load() == kItems) ++completed[c];
          } catch (const check_error&) {
            ++thrown[c];
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      EXPECT_EQ(completed[c], c % 2 == 1 ? 0u : 8u) << "caller " << c;
      EXPECT_EQ(thrown[c], c % 2 == 1 ? 8u : 0u) << "caller " << c;
    }
    std::atomic<std::size_t> after{0};
    pool.parallel_for(kItems, [&after](std::size_t) {
      after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), kItems);
  }
}

// max_workers = 1 runs the whole range inline, in index order, on the
// caller, even while other callers keep every worker busy.
TEST(ThreadPoolStress, MaxWorkersOneRunsInlineUnderContention) {
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    std::atomic<bool> stop{false};
    std::thread busy([&pool, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        pool.parallel_for(64, [](std::size_t i) {
          volatile std::size_t sink = i;
          (void)sink;
        });
      }
    });
    const auto caller = std::this_thread::get_id();
    for (int repeat = 0; repeat < 50; ++repeat) {
      std::vector<std::size_t> order;
      bool off_caller = false;
      pool.parallel_for(
          40,
          [&](std::size_t i) {
            if (std::this_thread::get_id() != caller) off_caller = true;
            order.push_back(i);
          },
          /*max_workers=*/1);
      ASSERT_FALSE(off_caller);
      ASSERT_EQ(order.size(), 40u);
      ASSERT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
    stop.store(true);
    busy.join();
  }
}

TEST(ThreadPoolStress, ConstructDestroyChurn) {
  for (int repeat = 0; repeat < 16; ++repeat) {
    thread_pool pool(1 + static_cast<std::size_t>(repeat % 3));
    std::atomic<std::size_t> done{0};
    pool.parallel_for(16, [&done](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(done.load(), 16u);
  }
}

TEST(ThreadPoolStress, MaxWorkersCapRespectedUnderChurn) {
  // Hammer the max_workers cap: many concurrent callers, each asking the
  // shared pool for a different (small) cap. Observed concurrency per call
  // must never exceed the cap (+1 for the participating caller is already
  // inside the cap's contract: cap counts workers incl. the caller).
  constexpr std::size_t kCallers = 4;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  std::atomic<bool> violated{false};
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &violated] {
      const std::size_t cap = 1 + c % 3;
      std::atomic<std::size_t> inside{0};
      for (int repeat = 0; repeat < 8; ++repeat) {
        thread_pool::shared().parallel_for(
            97,
            [&inside, &violated, cap](std::size_t) {
              const std::size_t now =
                  inside.fetch_add(1, std::memory_order_acq_rel) + 1;
              if (now > cap) violated.store(true, std::memory_order_relaxed);
              inside.fetch_sub(1, std::memory_order_acq_rel);
            },
            cap);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_FALSE(violated.load());
}

// ------------------------------------------------------------ sweep runner

TEST(SweepRunnerStress, ConcurrentSweepsProduceIdenticalTables) {
  // Several whole figure sweeps in flight at once, all drawing cells and
  // payment probes from the one shared pool. Every caller must reproduce
  // the serial table byte-for-byte.
  harness::sweep_config serial_cfg;
  serial_cfg.trials = 2;
  serial_cfg.seed = 5;
  serial_cfg.demanders = 3;
  serial_cfg.threads = 1;
  const std::string expected =
      harness::fig3a_ssam_ratio(serial_cfg, {4, 6}).to_csv();

  constexpr std::size_t kCallers = 3;
  std::vector<std::string> tables(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&tables, c] {
      harness::sweep_config cfg;
      cfg.trials = 2;
      cfg.seed = 5;
      cfg.demanders = 3;
      cfg.threads = 0;  // shared pool
      tables[c] = harness::fig3a_ssam_ratio(cfg, {4, 6}).to_csv();
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(tables[c], expected) << "caller " << c;
  }
}

TEST(SweepRunnerStress, RepeatedParallelSweepsStayDeterministic) {
  // Back-to-back parallel sweeps reuse pooled scratch workspaces in
  // scheduler-dependent order; the tables must not care.
  harness::sweep_config cfg;
  cfg.trials = 3;
  cfg.seed = 11;
  cfg.demanders = 3;
  cfg.threads = 0;
  const std::string first = harness::fig6a_rounds_bids(cfg, {2}, {1, 2}, 5)
                                .to_csv();
  for (int repeat = 0; repeat < 4; ++repeat) {
    EXPECT_EQ(harness::fig6a_rounds_bids(cfg, {2}, {1, 2}, 5).to_csv(), first)
        << "repeat " << repeat;
  }
}

// ----------------------------------------------------- SSAM payment fan-out

auction::single_stage_instance stress_instance(std::uint64_t seed) {
  auction::instance_config config;
  config.sellers = 30;
  config.demanders = 5;
  config.bids_per_seller = 2;
  rng gen(seed);
  return auction::random_instance(config, gen);
}

TEST(SsamConcurrencyStress, PaymentsIdenticalForEveryThreadCount) {
  const auto instance = stress_instance(0xec25);

  auction::ssam_options serial;
  serial.rule = auction::payment_rule::critical_value;
  serial.payment_threads = 1;
  const auto reference = run_ssam(instance, serial);
  ASSERT_TRUE(reference.feasible);
  ASSERT_FALSE(reference.winners.empty());

  std::vector<std::size_t> thread_counts = stress_pool_sizes();
  thread_counts.push_back(0);  // the shared process-wide pool
  for (const std::size_t threads : thread_counts) {
    auction::ssam_options options = serial;
    options.payment_threads = threads;
    const auto result = run_ssam(instance, options);
    ASSERT_EQ(result.winners.size(), reference.winners.size());
    for (std::size_t pos = 0; pos < result.winners.size(); ++pos) {
      EXPECT_EQ(result.winners[pos].bid_index,
                reference.winners[pos].bid_index);
      // Payments are pure probes writing disjoint slots: bit-for-bit equal
      // regardless of the worker count.
      EXPECT_EQ(result.winners[pos].payment, reference.winners[pos].payment)
          << "winner " << pos << " with payment_threads = " << threads;
    }
  }
}

TEST(SsamConcurrencyStress, ConcurrentAuctionsOnSharedPool) {
  // Many full mechanisms in flight at once, all fanning their payment
  // probes out over the one shared pool — the contention pattern a
  // multi-tenant platform produces.
  constexpr std::size_t kCallers = 4;
  const auto instance = stress_instance(0xec52);

  auction::ssam_options serial;
  serial.rule = auction::payment_rule::critical_value;
  serial.payment_threads = 1;
  const auto reference = run_ssam(instance, serial);

  std::vector<auction::ssam_result> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&instance, &results, c] {
      auction::ssam_options options;
      options.rule = auction::payment_rule::critical_value;
      options.payment_threads = 0;  // shared pool
      results[c] = run_ssam(instance, options);
    });
  }
  for (std::thread& t : callers) t.join();

  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].winners.size(), reference.winners.size());
    for (std::size_t pos = 0; pos < results[c].winners.size(); ++pos) {
      EXPECT_EQ(results[c].winners[pos].bid_index,
                reference.winners[pos].bid_index);
      EXPECT_EQ(results[c].winners[pos].payment,
                reference.winners[pos].payment);
    }
    auction::audit_options audit;
    EXPECT_NO_THROW(audit_or_throw(instance, results[c], audit));
  }
}

TEST(SsamConcurrencyStress, ThreadArenaReusedAcrossConcurrentAuctions) {
  // The per-winner probe slots are carved from each calling thread's bump
  // arena (common/arena.h). Several threads each running MANY back-to-back
  // auctions stress the arena scope rewind/reuse cycle and — under TSan —
  // confirm no arena state is shared across threads. Each thread also
  // interleaves two scratches, the sweep-runner pattern where a workspace
  // migrates between cells while the arena stays thread-local.
  constexpr std::size_t kCallers = 4;
  const auto instance = stress_instance(0xa12e);

  auction::ssam_options serial;
  serial.rule = auction::payment_rule::critical_value;
  serial.payment_threads = 1;
  const auto reference = run_ssam(instance, serial);
  ASSERT_FALSE(reference.winners.empty());

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  std::atomic<bool> mismatch{false};
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&instance, &reference, &mismatch] {
      auction::ssam_scratch scratch_a, scratch_b;
      auction::ssam_options options;
      options.rule = auction::payment_rule::critical_value;
      options.payment_threads = 1;
      auction::ssam_result out;
      for (int repeat = 0; repeat < 12; ++repeat) {
        auction::ssam_scratch* scratch =
            (repeat % 2 == 0) ? &scratch_a : &scratch_b;
        run_ssam(instance, options, scratch, out);
        if (out.winners.size() != reference.winners.size()) {
          mismatch.store(true, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t pos = 0; pos < out.winners.size(); ++pos) {
          if (out.winners[pos].bid_index != reference.winners[pos].bid_index ||
              out.winners[pos].payment != reference.winners[pos].payment) {
            mismatch.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(SsamConcurrencyStress, BudgetedParallelPaymentsStayAudited) {
  // The budget re-verification path (drop trailing winners) runs after the
  // parallel fan-out; under TSan this exercises the join edge between the
  // workers and the re-check.
  const auto instance = stress_instance(0xb4d9);
  auction::ssam_options unbounded;
  unbounded.rule = auction::payment_rule::critical_value;
  const auto full = run_ssam(instance, unbounded);
  ASSERT_FALSE(full.winners.empty());

  auction::ssam_options bounded = unbounded;
  bounded.payment_budget = 0.6 * full.total_payment;
  const auto result = run_ssam(instance, bounded);
  EXPECT_LE(result.total_payment, bounded.payment_budget + 1e-9);
  auction::audit_options audit;
  audit.payment_budget = bounded.payment_budget;
  EXPECT_NO_THROW(audit_or_throw(instance, result, audit));
}

// ------------------------------------------------- marketplace + mailbox

// Shard/mailbox churn: many regions post into their own pre-sized mailbox
// slots from pool workers while the driver drains between phases. The
// mailbox's safety claim is exactly this pattern (disjoint slot writes
// under the fan-out, serial drain after the join), so this is the case
// TSan must see; the assertions double as the determinism check — the
// drain order is a pure function of what was posted where.
TEST(MarketStress, MailboxChurnUnderShardFanOut) {
  constexpr std::uint32_t kRegions = 12;
  constexpr std::size_t kMessagesPerRegion = 64;
  for (const std::size_t pool_size : stress_pool_sizes()) {
    thread_pool pool(pool_size);
    market::post_office po(kRegions);
    for (int round = 0; round < 4; ++round) {
      pool.parallel_for(kRegions, [&po](std::size_t r) {
        for (std::size_t i = 0; i < kMessagesPerRegion; ++i) {
          market::message m;
          m.type = market::message::kind::spill_request;
          m.from = static_cast<std::uint32_t>(r);  // own slot only
          m.to = po.coordinator();
          m.seller = static_cast<std::uint32_t>(i);
          po.post(std::move(m));
        }
      });
      std::uint32_t expect_from = 0;
      std::uint32_t expect_seq = 0;
      std::size_t delivered = 0;
      po.drain([&](const market::message& m) {
        EXPECT_EQ(m.from, expect_from);
        EXPECT_EQ(m.seller, expect_seq);
        ++delivered;
        if (++expect_seq == kMessagesPerRegion) {
          expect_seq = 0;
          ++expect_from;
        }
      });
      EXPECT_EQ(delivered, kRegions * kMessagesPerRegion);
      EXPECT_EQ(po.pending(), 0u);
    }
  }
}

// Whole marketplace horizons raced across pool sizes: every run must
// produce the same winner/payment stream the serial shard composition
// does. Gives TSan the real shard fan-out (sessions, mailbox, spillover)
// instead of a synthetic loop: the 2800-demander regions put each round
// past the marketplace's fan-out grain (16384 demanders), below which
// every thread count runs the shards inline.
TEST(MarketStress, MarketplaceHorizonDeterministicAcrossPools) {
  for (const std::size_t demanders : {std::size_t{3}, std::size_t{2800}}) {
    auction::online_config stage;
    stage.stage.sellers = 5;
    stage.stage.demanders = demanders;
    stage.rounds = 3;
    auction::regional_config regional;
    regional.regions = 6;
    regional.demand_scale = 1.3;
    rng gen(0xc0de);
    const auto input =
        auction::random_regional_online_instance(stage, regional, gen);

    const auto run = [&](std::size_t threads) {
      market::marketplace_options options;
      options.threads = threads;
      options.shard.session.stage.payment_threads = 1;
      std::vector<std::vector<auction::seller_profile>> sellers;
      for (const auto& region : input.regions) {
        sellers.push_back(region.sellers);
      }
      edge::topology topo =
          edge::topology::ring(static_cast<std::uint32_t>(regional.regions));
      market::marketplace mkt(topo, std::move(sellers), options);
      std::vector<std::pair<std::size_t, double>> stream;
      market::marketplace_round result;
      auction::regional_instance round;
      round.regions.resize(regional.regions);
      for (std::size_t t = 0; t < stage.rounds; ++t) {
        for (std::size_t r = 0; r < regional.regions; ++r) {
          round.regions[r] = input.regions[r].rounds[t];
        }
        mkt.run_round(round, result);
        for (const auto& shard : result.shards) {
          for (std::size_t w = 0; w < shard.outcome.winner_bids.size(); ++w) {
            stream.emplace_back(shard.outcome.winner_bids[w],
                                shard.outcome.payments[w]);
          }
        }
        for (const auto& award : result.spillover.awards) {
          stream.emplace_back(award.bid_index, award.payment);
        }
      }
      return stream;
    };

    const auto reference = run(1);
    ASSERT_FALSE(reference.empty());
    for (const std::size_t pool_size : stress_pool_sizes()) {
      EXPECT_EQ(run(pool_size), reference)
          << "pool size " << pool_size << ", " << demanders << " demanders";
    }
  }
}

}  // namespace
}  // namespace ecrs
