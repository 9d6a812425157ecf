// Per-round digest of everything a closed-loop round decided: the words of
// bench/daemon_throughput's digest_round (winners, payment bit patterns,
// deficits, spillover awards, totals, estimates, grants), folded into one
// 64-bit hash per round so long horizons on wide markets need no
// multi-megabyte word vectors. Two runs agree when every round's hash and
// word count agree.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "market/marketplace.h"

namespace perfbench {

class digest {
 public:
  void add_round(const ecrs::market::marketplace_round& round,
                 std::span<const double> estimates,
                 std::span<const ecrs::auction::units> grants) {
    h_ = 0x6a09e667f3bcc908ULL;
    word(round.round);
    for (const auto& shard : round.shards) {
      word(shard.outcome.winner_bids.size());
      for (const std::size_t w : shard.outcome.winner_bids) word(w);
      for (const double p : shard.outcome.payments) real(p);
      real(shard.outcome.social_cost);
      word(static_cast<std::uint64_t>(shard.deficit));
    }
    word(round.spillover.awards.size());
    for (const auto& award : round.spillover.awards) {
      word(award.demand_region);
      word(award.seller);
      word(static_cast<std::uint64_t>(award.amount));
      real(award.payment);
    }
    real(round.social_cost);
    real(round.total_payment);
    for (const double e : estimates) real(e);
    for (const ecrs::auction::units g : grants) {
      word(static_cast<std::uint64_t>(g));
    }
    rounds_.push_back(h_);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& rounds() const {
    return rounds_;
  }
  [[nodiscard]] std::uint64_t words() const { return words_; }

 private:
  void word(std::uint64_t w) {
    // Multiply-rotate fold with a splitmix64-style premix of the word.
    w ^= w >> 31;
    w *= 0x7fb5d329728ea185ULL;
    w ^= w >> 27;
    h_ = std::rotl(h_ ^ w, 29) * 0x9e3779b97f4a7c15ULL;
    ++words_;
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t h_ = 0;
  std::uint64_t words_ = 0;
  std::vector<std::uint64_t> rounds_;
};

// Index of the first round on which two digests differ (their common
// length when one is a prefix of the other); equal digests return size().
[[nodiscard]] inline std::size_t first_mismatch(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

}  // namespace perfbench
