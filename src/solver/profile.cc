#include "solver/profile.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adp {

CostProfile::CostProfile(std::vector<std::int64_t> cost)
    : cost_(std::move(cost)) {
  assert(!cost_.empty() && cost_[0] == 0);
#ifndef NDEBUG
  for (std::size_t j = 1; j < cost_.size(); ++j) {
    assert(cost_[j] >= cost_[j - 1]);
  }
#endif
}

std::int64_t CostProfile::MaxRemovedWithin(std::int64_t budget) const {
  // Largest j with cost[j] <= budget; cost_ is nondecreasing.
  auto it = std::upper_bound(cost_.begin(), cost_.end(), budget);
  return static_cast<std::int64_t>(it - cost_.begin()) - 1;
}

bool CostProfile::HasConcaveGains() const {
  const std::int64_t budget_max = cost_.back();
  if (budget_max >= kInfCost) return false;
  std::int64_t prev_gain = kMaxOutputs;
  std::int64_t prev_f = 0;
  for (std::int64_t c = 1; c <= budget_max; ++c) {
    const std::int64_t f = MaxRemovedWithin(c);
    const std::int64_t gain = f - prev_f;
    if (gain > prev_gain) return false;
    prev_gain = gain;
    prev_f = f;
  }
  return true;
}

bool CostProfile::IsConvex() const {
  std::int64_t prev_inc = 0;
  for (std::size_t j = 1; j < cost_.size(); ++j) {
    if (cost_[j] >= kInfCost) return false;
    const std::int64_t inc = cost_[j] - cost_[j - 1];
    if (inc < prev_inc) return false;
    prev_inc = inc;
  }
  return true;
}

void CostProfile::TruncateTo(std::int64_t cap) {
  if (cap < kmax()) cost_.resize(static_cast<std::size_t>(cap) + 1);
}

CostProfile CombineDisjoint(const CostProfile& a, const CostProfile& b,
                            std::int64_t cap) {
  const std::int64_t out_kmax = std::min(cap, SatAdd(a.kmax(), b.kmax()));
  std::vector<std::int64_t> out(static_cast<std::size_t>(out_kmax) + 1);
  for (std::int64_t j = 0; j <= out_kmax; ++j) {
    out[j] = DisjointSplit(a, b, j).cost;
  }
  return CostProfile(std::move(out));
}

SplitChoice DisjointSplit(const CostProfile& a, const CostProfile& b,
                          std::int64_t j) {
  SplitChoice best{kInfCost, j, 0};
  const std::int64_t mmax = std::min(j, b.kmax());
  const std::int64_t mmin = std::max<std::int64_t>(0, j - a.kmax());
  for (std::int64_t m = mmin; m <= mmax; ++m) {
    const std::int64_t c = a.At(j - m) + b.At(m);
    if (c < best.cost) best = {c, j - m, m};
  }
  return best;
}

namespace {

// k1*mb + k2*ma - k1*k2 outputs of the ma*mb products, saturated
// (k2 <= mb).
std::int64_t Removed(std::int64_t k1, std::int64_t ma, std::int64_t k2,
                     std::int64_t mb) {
  return SatAdd(SatMul(k1, mb - k2), SatMul(k2, ma));
}

}  // namespace

CostProfile CombineProduct(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t cap, bool naive_inner) {
  const std::int64_t out_kmax = std::min(cap, SatMul(ma, mb));
  std::vector<std::int64_t> out(static_cast<std::size_t>(out_kmax) + 1,
                                kInfCost);
  out[0] = 0;

  if (naive_inner) {
    // Original Algorithm 5 inner loop: per target, enumerate every (k1, k2)
    // pair and keep the cheapest feasible one — the Figure 29 "pairwise"
    // strategy measures exactly this full scan.
    for (std::int64_t j = 1; j <= out_kmax; ++j) {
      const std::int64_t k2_hi = std::min(b.kmax(), std::min(mb, j));
      for (std::int64_t k2 = 0; k2 <= k2_hi; ++k2) {
        const std::int64_t cb = b.At(k2);
        if (cb >= kInfCost) break;  // profiles are monotone
        const std::int64_t k1_hi = std::min(a.kmax(), std::min(ma, j));
        for (std::int64_t k1 = 0; k1 <= k1_hi; ++k1) {
          if (Removed(k1, ma, k2, mb) < j) continue;
          const std::int64_t c = a.At(k1) + cb;
          if (c < out[j]) out[j] = c;
        }
      }
    }
    return CostProfile(std::move(out));
  }

  // Each feasible pair once: bucket its cost at r = min(removed, out_kmax);
  // out[j] is then the suffix minimum over buckets r >= j.
  const std::int64_t ka = std::min(a.kmax(), ma);
  const std::int64_t kb = std::min(b.kmax(), mb);
  for (std::int64_t k2 = 0; k2 <= kb; ++k2) {
    const std::int64_t cb = b.At(k2);
    if (cb >= kInfCost) break;  // profiles are monotone
    for (std::int64_t k1 = 0; k1 <= ka; ++k1) {
      const std::int64_t ca = a.At(k1);
      if (ca >= kInfCost) break;
      const std::int64_t r = std::min(Removed(k1, ma, k2, mb), out_kmax);
      out[r] = std::min(out[r], ca + cb);
      // removed is nondecreasing in k1: larger k1 only costs more.
      if (r == out_kmax) break;
    }
    // k1 = 0 already reached the cap, so every larger k2 lands in the same
    // bucket at a cost >= b[k2].
    if (SatMul(k2, ma) >= out_kmax) break;
  }
  for (std::int64_t j = out_kmax; j > 0; --j) {
    out[j - 1] = std::min(out[j - 1], out[j]);
  }
  return CostProfile(std::move(out));
}

SplitChoice ProductSplit(const CostProfile& a, std::int64_t ma,
                         const CostProfile& b, std::int64_t mb,
                         std::int64_t j) {
  SplitChoice best;
  const std::int64_t k2_hi = std::min(b.kmax(), std::min(mb, j));
  for (std::int64_t k2 = 0; k2 <= k2_hi; ++k2) {
    const std::int64_t cb = b.At(k2);
    if (cb >= kInfCost) break;  // profiles are monotone
    // Minimal feasible k1 in closed form (§7.3); k2 == mb removes the whole
    // b-factor and with it everything.
    std::int64_t k1 = 0;
    if (k2 < mb) {
      const std::int64_t need = j - SatMul(k2, ma);
      if (need > 0) {
        const std::int64_t den = mb - k2;
        k1 = (need + den - 1) / den;
      }
    }
    if (k1 > ma || k1 > a.kmax()) continue;
    // j beyond what the factors can remove, e.g. past ma*mb or saturation.
    if (Removed(k1, ma, k2, mb) < j) continue;
    const std::int64_t c = a.At(k1) + cb;
    if (c < best.cost) best = {c, k1, k2};
  }
  return best;
}

}  // namespace adp
