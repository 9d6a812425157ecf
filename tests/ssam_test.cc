// Unit and property tests for SSAM (Algorithm 1): greedy selection,
// payments, feasibility, the dual certificate, and Theorem 2/3 behaviour.
#include <gtest/gtest.h>

#include <set>

#include "auction/exact.h"
#include "auction/instance_gen.h"
#include "auction/msoa.h"
#include "auction/properties.h"
#include "auction/ssam.h"
#include "common/check.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/statistics.h"

namespace ecrs::auction {
namespace {

bid make_bid(seller_id s, std::vector<demander_id> cover, units amount,
             double price, std::uint32_t j = 0) {
  bid b;
  b.seller = s;
  b.index = j;
  b.coverage = std::move(cover);
  b.amount = amount;
  b.price = price;
  return b;
}

single_stage_instance two_seller_instance() {
  // One demander needing 4 units; seller 0 offers 4 units at 10, seller 1
  // offers 4 units at 12.
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 12.0)};
  return inst;
}

// ---------------------------------------------------------------- selection

TEST(GreedySelection, PicksCheapestSufficientBid) {
  const auto inst = two_seller_instance();
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 1u);
  EXPECT_EQ(winners[0], 0u);
}

TEST(GreedySelection, CombinesSellersWhenNeeded) {
  single_stage_instance inst;
  inst.requirements = {6};
  inst.bids = {make_bid(0, {0}, 4, 8.0), make_bid(1, {0}, 4, 9.0),
               make_bid(2, {0}, 4, 20.0)};
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0], 0u);
  EXPECT_EQ(winners[1], 1u);
}

TEST(GreedySelection, AtMostOneBidPerSeller) {
  single_stage_instance inst;
  inst.requirements = {8};
  // Seller 0's two bids are both attractive, but only one may win.
  inst.bids = {make_bid(0, {0}, 4, 1.0, 0), make_bid(0, {0}, 4, 1.1, 1),
               make_bid(1, {0}, 4, 10.0), make_bid(2, {0}, 4, 12.0)};
  const auto winners = greedy_selection(inst);
  std::set<seller_id> sellers;
  for (std::size_t idx : winners) {
    EXPECT_TRUE(sellers.insert(inst.bids[idx].seller).second);
  }
  EXPECT_TRUE(selection_feasible(inst, winners));
}

TEST(GreedySelection, PrefersCostEffectivenessNotPrice) {
  single_stage_instance inst;
  inst.requirements = {10};
  // Bid A: price 10 for 10 units (ratio 1.0); bid B: price 5 for 2 units
  // (ratio 2.5). Greedy must take A first despite its higher price.
  inst.bids = {make_bid(0, {0}, 10, 10.0), make_bid(1, {0}, 2, 5.0)};
  const auto winners = greedy_selection(inst);
  ASSERT_EQ(winners.size(), 1u);
  EXPECT_EQ(winners[0], 0u);
}

TEST(GreedySelection, StopsWhenNothingHelps) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 4, 1.0)};
  const auto winners = greedy_selection(inst);
  EXPECT_EQ(winners.size(), 1u);  // partial coverage, then no candidate left
}

TEST(GreedySelection, MultiDemanderCoverage) {
  single_stage_instance inst;
  inst.requirements = {2, 2, 2};
  inst.bids = {make_bid(0, {0, 1, 2}, 2, 9.0),  // covers everything: ratio 1.5
               make_bid(1, {0}, 2, 2.0),        // ratio 1.0
               make_bid(2, {1, 2}, 2, 10.0)};   // ratio 2.5
  const auto winners = greedy_selection(inst);
  // Bid 1 first (ratio 1.0), then bid 0 covers the rest (remaining 4 units,
  // ratio 2.25) beats bid 2 (ratio 2.5).
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0], 1u);
  EXPECT_EQ(winners[1], 0u);
}

// ----------------------------------------------------------------- run_ssam

TEST(RunSsam, FeasibleOutcomeOnSatisfiableInstance) {
  const auto inst = two_seller_instance();
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.social_cost, 10.0);
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_EQ(res.winners[0].utility_at_selection, 4);
  EXPECT_DOUBLE_EQ(res.winners[0].ratio_at_selection, 2.5);
}

TEST(RunSsam, RunnerUpPaymentIsSecondRatioTimesUtility) {
  const auto inst = two_seller_instance();
  const auto res = run_ssam(inst);
  // Runner-up ratio = 12/4 = 3; payment = 4 * 3 = 12.
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_DOUBLE_EQ(res.winners[0].payment, 12.0);
  EXPECT_DOUBLE_EQ(res.total_payment, 12.0);
}

TEST(RunSsam, NoCompetitionFallsBackToPayAsBid) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0)};
  const auto res = run_ssam(inst);
  ASSERT_EQ(res.winners.size(), 1u);
  EXPECT_DOUBLE_EQ(res.winners[0].payment, 10.0);
}

TEST(RunSsam, InfeasibleInstanceFlagged) {
  single_stage_instance inst;
  inst.requirements = {100};
  inst.bids = {make_bid(0, {0}, 1, 1.0)};
  const auto res = run_ssam(inst);
  EXPECT_FALSE(res.feasible);
}

TEST(RunSsam, EmptyRequirementsSelectNothing) {
  single_stage_instance inst;
  inst.requirements = {0, 0};
  inst.bids = {make_bid(0, {0}, 1, 1.0)};
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.winners.empty());
  EXPECT_DOUBLE_EQ(res.social_cost, 0.0);
}

TEST(RunSsam, CriticalValueRuleMatchesThresholdSemantics) {
  const auto inst = two_seller_instance();
  ssam_options opts;
  opts.rule = payment_rule::critical_value;
  const auto res = run_ssam(inst, opts);
  ASSERT_EQ(res.winners.size(), 1u);
  // The winner keeps winning up to price 12 (where seller 1 ties).
  EXPECT_NEAR(res.winners[0].payment, 12.0, 1e-6);
}

TEST(RunSsam, ValidatesInstance) {
  single_stage_instance inst;
  inst.requirements = {1};
  inst.bids = {make_bid(0, {0}, 1, -3.0)};
  EXPECT_THROW(run_ssam(inst), check_error);
}

// Every public entry point validates, not only run_ssam: a duplicate
// coverage id would double-count utility, and an empty coverage, a zero
// amount or a negative price would feed the loops a bid they assume away.
TEST(EntryPoints, RejectMalformedBids) {
  std::vector<single_stage_instance> malformed;
  for (int shape = 0; shape < 4; ++shape) {
    single_stage_instance inst;
    inst.requirements = {4, 4};
    inst.bids = {make_bid(0, {0, 1}, 4, 10.0), make_bid(1, {0, 1}, 4, 12.0)};
    bid& bad = inst.bids[1];
    if (shape == 0) bad.coverage = {1, 1};  // duplicate coverage id
    if (shape == 1) bad.coverage.clear();   // empty coverage
    if (shape == 2) bad.amount = 0;         // amount < 1
    if (shape == 3) bad.price = -1.0;       // negative price
    malformed.push_back(std::move(inst));
  }
  for (std::size_t shape = 0; shape < malformed.size(); ++shape) {
    const single_stage_instance& inst = malformed[shape];
    EXPECT_THROW((void)greedy_selection(inst), check_error) << shape;
    EXPECT_THROW((void)eager_greedy_selection(inst), check_error) << shape;
    EXPECT_THROW((void)wins_with_price(inst, 0, 10.0), check_error) << shape;
    EXPECT_THROW((void)critical_value_payment(inst, 0), check_error)
        << shape;
    EXPECT_THROW((void)run_ssam(inst), check_error) << shape;
  }
}

// --------------------------------------------------------- wins_with_price

TEST(WinsWithPrice, MonotoneInReport) {
  const auto inst = two_seller_instance();
  EXPECT_TRUE(wins_with_price(inst, 0, 10.0));
  EXPECT_TRUE(wins_with_price(inst, 0, 11.9));
  EXPECT_FALSE(wins_with_price(inst, 0, 12.5));
  // The other bid wins once bid 0 prices itself out.
  EXPECT_TRUE(wins_with_price(inst, 1, 9.0));
}

TEST(CriticalValuePayment, ThrowsForLosingBid) {
  const auto inst = two_seller_instance();
  EXPECT_THROW(critical_value_payment(inst, 1), check_error);
}

TEST(CriticalValuePayment, BinarySearchConverges) {
  const auto inst = two_seller_instance();
  const double cv = critical_value_payment(inst, 0);
  EXPECT_NEAR(cv, 12.0, 1e-6);
  EXPECT_TRUE(wins_with_price(inst, 0, cv - 1e-4));
  EXPECT_FALSE(wins_with_price(inst, 0, cv + 1e-4));
}

// ----------------------------------------------------- dual certificate

TEST(DualCertificate, SharesSumToSocialCost) {
  rng gen(5);
  instance_config cfg;
  cfg.sellers = 10;
  cfg.demanders = 3;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  double share_sum = 0.0;
  for (double f : res.unit_shares) share_sum += f;
  EXPECT_NEAR(share_sum, res.social_cost, 1e-6);
}

TEST(DualCertificate, DualObjectiveIsWeakLowerBound) {
  rng gen(6);
  instance_config cfg;
  cfg.sellers = 8;
  cfg.demanders = 2;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  const auto ref = solve_exact(inst);
  ASSERT_TRUE(ref.exact);
  ASSERT_TRUE(ref.feasible);
  // Weak duality: dual objective <= OPT <= SSAM cost.
  EXPECT_LE(res.dual_objective, ref.cost + 1e-6);
  EXPECT_LE(ref.cost, res.social_cost + 1e-6);
}

TEST(DualCertificate, XiIsOneWithUniformShares) {
  single_stage_instance inst;
  inst.requirements = {4};
  inst.bids = {make_bid(0, {0}, 4, 10.0), make_bid(1, {0}, 4, 12.0)};
  const auto res = run_ssam(inst);
  EXPECT_DOUBLE_EQ(res.xi, 1.0);  // one winner => uniform shares
}

// --------------------------------------------- Theorem 3 (property sweep)

struct RatioCase {
  std::uint64_t seed;
  std::size_t bids_per_seller;
};

class SsamApproximationRatio : public ::testing::TestWithParam<RatioCase> {};

TEST_P(SsamApproximationRatio, WithinTheorem3Bound) {
  rng gen(GetParam().seed);
  instance_config cfg;
  cfg.sellers = 9;
  cfg.demanders = 3;
  cfg.bids_per_seller = GetParam().bids_per_seller;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  const auto ref = solve_exact(inst);
  ASSERT_TRUE(ref.exact);
  if (!ref.feasible) return;
  ASSERT_TRUE(res.feasible);
  EXPECT_LE(res.social_cost, res.ratio_bound * ref.cost + 1e-6)
      << "ratio " << res.social_cost / ref.cost << " exceeds W*Xi = "
      << res.ratio_bound;
  EXPECT_GE(res.social_cost, ref.cost - 1e-6);  // never beats the optimum
}

std::vector<RatioCase> ratio_cases() {
  std::vector<RatioCase> cases;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    for (std::size_t j : {1u, 2u, 3u}) {
      cases.push_back({seed, j});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SsamApproximationRatio,
                         ::testing::ValuesIn(ratio_cases()));

// ------------------------------------------------ single-bid special case

TEST(SsamSingleBidPerSeller, CloseToOptimalOnSmallInstances) {
  // Theorem 3 remark: with one bid per seller the ratio is W_i (Xi = 1 is
  // not guaranteed, but small instances should be near-optimal).
  running_stats ratios;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rng gen(seed);
    instance_config cfg;
    cfg.sellers = 5;
    cfg.demanders = 1;
    cfg.bids_per_seller = 1;
    const auto inst = random_instance(cfg, gen);
    const auto res = run_ssam(inst);
    const auto ref = solve_exact(inst);
    if (!ref.feasible || ref.cost <= 0.0) continue;
    ratios.add(res.social_cost / ref.cost);
  }
  ASSERT_GT(ratios.count(), 10u);
  EXPECT_LT(ratios.mean(), 1.35);
  EXPECT_GE(ratios.min(), 1.0 - 1e-9);
}

// ------------------------------------------- compiled-path equivalence

TEST(CompiledEquivalence, ReferencePathsMatchDefaultOnRandomInstances) {
  // Smoke-level check that the compiled CSR default and the bid-vector
  // eager reference agree bit for bit (tests/compiled_fuzz_test.cc is the
  // heavyweight sweep).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rng gen(seed);
    instance_config cfg;
    cfg.sellers = 30;
    cfg.demanders = 4;
    const auto inst = random_instance(cfg, gen);
    for (const payment_rule rule :
         {payment_rule::runner_up, payment_rule::critical_value}) {
      ssam_options opts;
      opts.rule = rule;
      opts.payment_threads = 1;
      const auto base = run_ssam(inst, opts);

      ssam_options eager_ref = opts;
      eager_ref.eager_reference = true;
      const auto other = run_ssam(inst, eager_ref);
      ASSERT_EQ(base.winners.size(), other.winners.size());
      for (std::size_t pos = 0; pos < base.winners.size(); ++pos) {
        EXPECT_EQ(base.winners[pos].bid_index, other.winners[pos].bid_index);
        EXPECT_EQ(base.winners[pos].payment, other.winners[pos].payment);
      }
      EXPECT_EQ(base.social_cost, other.social_cost);
      EXPECT_EQ(base.total_payment, other.total_payment);
      EXPECT_EQ(base.feasible, other.feasible);
    }
  }
}

// ------------------------------------------------------------ golden digest

// Serializes every field of an SSAM result (doubles as bit patterns).
void fold_result(checkpoint_writer& w, const ssam_result& r) {
  w.size(r.winners.size());
  for (const winning_bid& win : r.winners) {
    w.size(win.bid_index);
    w.f64(win.payment);
    w.i64(win.utility_at_selection);
    w.f64(win.ratio_at_selection);
  }
  w.u8(r.feasible ? 1 : 0);
  w.f64(r.social_cost);
  w.f64(r.total_payment);
  w.size(r.budget_dropped);
  w.size(r.unit_shares.size());
  for (const double share : r.unit_shares) w.f64(share);
  w.f64(r.xi);
  w.f64(r.harmonic);
  w.f64(r.ratio_bound);
  w.f64(r.dual_objective);
}

// Pins the mechanism's observable output bit for bit: a fixed fuzz corpus
// under runner_up, critical_value, and critical_value with a payment budget
// that binds, plus every round of one standing-bid MSOA session. Any change
// to selection, payments, budget enforcement or the certificate moves the
// digest; a pure refactor of the SSAM paths must leave it untouched.
TEST(GoldenDigest, SsamAndMsoaOutcomesArePinned) {
  checkpoint_writer w;
  rng gen(0x601D3Eu);
  std::size_t budget_bound = 0;
  std::size_t budget_dropped = 0;
  for (int trial = 0; trial < 100; ++trial) {
    instance_config cfg;
    cfg.sellers = 4 + static_cast<std::size_t>(gen.uniform_int(0, 30));
    cfg.demanders = 1 + static_cast<std::size_t>(gen.uniform_int(0, 9));
    cfg.bids_per_seller = 1 + static_cast<std::size_t>(gen.uniform_int(0, 3));
    cfg.amount_hi = 1 + gen.uniform_int(0, 9);
    cfg.coverage_fraction =
        0.3 + 0.1 * static_cast<double>(gen.uniform_int(0, 7));
    const auto inst = random_instance(cfg, gen);

    ssam_options opts;
    opts.payment_threads = 1;
    opts.self_audit = true;
    fold_result(w, run_ssam(inst, opts));

    opts.rule = payment_rule::critical_value;
    const auto critical = run_ssam(inst, opts);
    fold_result(w, critical);

    opts.payment_budget = 0.6 * critical.total_payment;
    const auto budgeted = run_ssam(inst, opts);
    fold_result(w, budgeted);
    if (budgeted.winners.size() < critical.winners.size()) ++budget_bound;
    if (budgeted.budget_dropped > 0) ++budget_dropped;
  }
  // The budget lane really binds, in the selection gate and in the
  // post-payment re-check.
  EXPECT_GT(budget_bound, 50u) << budget_bound;
  EXPECT_GT(budget_dropped, 0u) << budget_dropped;

  // Standing bids: one bid vector, requirements re-drawn every round.
  instance_config cfg;
  cfg.sellers = 14;
  cfg.demanders = 6;
  const single_stage_instance base = random_instance(cfg, gen);
  std::vector<seller_profile> profiles(cfg.sellers);
  for (seller_profile& p : profiles) {
    p.capacity = 60;
    p.t_arrive = 1;
    p.t_depart = 8;
  }
  msoa_options msoa_opts;
  msoa_opts.stage.rule = payment_rule::critical_value;
  msoa_opts.stage.payment_threads = 1;
  msoa_session session(profiles, msoa_opts);
  for (int t = 0; t < 8; ++t) {
    single_stage_instance round = base;
    for (units& x : round.requirements) x = gen.uniform_int(0, x);
    const msoa_round_outcome out = session.run_round(round);
    w.u32(out.round);
    w.size(out.admitted_bids);
    w.size(out.winner_bids.size());
    for (std::size_t i = 0; i < out.winner_bids.size(); ++i) {
      w.size(out.winner_bids[i]);
      w.f64(out.true_prices[i]);
      w.f64(out.payments[i]);
    }
    w.f64(out.social_cost);
    w.u8(out.feasible ? 1 : 0);
    fold_result(w, out.stage);
    for (seller_id s = 0; s < cfg.sellers; ++s) w.f64(session.psi(s));
  }
  EXPECT_GT(session.warm_rounds(), 0u);

  EXPECT_EQ(fnv1a64(w.payload()), 0x9099cbff281e2e69ULL)
      << std::hex << fnv1a64(w.payload());
}

// --------------------------------------------------------------- runtime

TEST(SsamComplexity, GrowsPolynomially) {
  // Smoke test of Theorem 2: doubling the instance should not explode the
  // runtime; also documents that 400-seller instances stay fast.
  rng gen(77);
  instance_config cfg;
  cfg.sellers = 400;
  cfg.demanders = 5;
  const auto inst = random_instance(cfg, gen);
  const auto res = run_ssam(inst);
  EXPECT_TRUE(res.feasible);
}

}  // namespace
}  // namespace ecrs::auction
