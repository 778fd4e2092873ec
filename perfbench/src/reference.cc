#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <random>
#include <cstring>

namespace pb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Float slack of comparisons that are exact in real arithmetic.
constexpr double kFloatSlack = 1e-9;

double RefDist(Vec2 a, Vec2 b) {
  double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double PiOf(const std::vector<std::pair<int, double>>& pi, int id) {
  auto it = std::lower_bound(pi.begin(), pi.end(), std::make_pair(id, -kInf));
  return it != pi.end() && it->first == id ? it->second : 0.0;
}

double MaxPi(const std::vector<std::pair<int, double>>& pi) {
  double m = 0;
  for (auto [id, p] : pi) m = std::max(m, p);
  return m;
}

/// The k-th largest pi (0 when fewer than k are positive).
double KthPi(const std::vector<std::pair<int, double>>& pi, int k) {
  std::vector<double> v;
  for (auto [id, p] : pi) v.push_back(p);
  std::sort(v.rbegin(), v.rend());
  return static_cast<int>(v.size()) >= k ? v[k - 1] : 0.0;
}

/// An id a top-k answer must have held but did not, or -1: with
/// estimates within eps, an id whose pi exceeds a member's by more than
/// 2 eps outranks it, and a short list (fewer than k) holds every id
/// with pi above eps.
int TopKLeftOut(const std::vector<std::pair<int, double>>& pi, int k,
                const std::vector<std::pair<int, double>>& ranked,
                double slack) {
  std::vector<int> members;
  double weakest = kInf;
  for (auto [id, est] : ranked) {
    members.push_back(id);
    weakest = std::min(weakest, PiOf(pi, id));
  }
  std::sort(members.begin(), members.end());
  double bar = static_cast<int>(ranked.size()) < k ? kEps : weakest + 2 * kEps;
  for (auto [id, p] : pi) {
    if (p > bar + slack && !std::binary_search(members.begin(), members.end(), id)) {
      return id;
    }
  }
  return -1;
}

/// Lemma 2.1 from per-point (delta_i, Delta_i): i is in NN!=0 iff
/// delta_i < Delta_j for every j != i. Values within 1e-9 of the
/// threshold are reported apart, since the library may round either way.
void Lemma21(const std::vector<double>& lo, const std::vector<double>& hi,
             std::vector<int>* sure, std::vector<int>* ambiguous) {
  double best = kInf, second = kInf;
  int arg = -1;
  for (size_t i = 0; i < hi.size(); ++i) {
    if (hi[i] < best) {
      second = best;
      best = hi[i];
      arg = static_cast<int>(i);
    } else if (hi[i] < second) {
      second = hi[i];
    }
  }
  for (size_t i = 0; i < lo.size(); ++i) {
    double thr = static_cast<int>(i) == arg ? second : best;
    double tol = kFloatSlack * (1 + thr);
    if (lo[i] < thr - tol) {
      sure->push_back(static_cast<int>(i));
    } else if (lo[i] <= thr + tol) {
      ambiguous->push_back(static_cast<int>(i));
    }
  }
}

std::string CheckNonzeroSet(const std::vector<int>& sure,
                            const std::vector<int>& ambiguous,
                            const std::vector<int>& ids) {
  for (int id : sure) {
    if (!std::binary_search(ids.begin(), ids.end(), id)) {
      return "NN!=0 misses id " + std::to_string(id);
    }
  }
  for (int id : ids) {
    if (!std::binary_search(sure.begin(), sure.end(), id) &&
        !std::binary_search(ambiguous.begin(), ambiguous.end(), id)) {
      return "NN!=0 reports id " + std::to_string(id) + " outside Lemma 2.1";
    }
  }
  if (!std::is_sorted(ids.begin(), ids.end())) return "NN!=0 ids not sorted";
  return "";
}

bool ValidId(int id, size_t n) { return id >= 0 && static_cast<size_t>(id) < n; }

/// Area of disk(c, r) within distance t of a point at distance D from c.
double LensArea(double D, double r, double t) {
  if (t <= 0) return 0.0;
  if (D + t <= r) return std::numbers::pi * t * t;
  if (D + r <= t) return std::numbers::pi * r * r;
  if (t + r <= D) return 0.0;
  auto acos_clamped = [](double x) { return std::acos(std::clamp(x, -1.0, 1.0)); };
  double a = t * t * acos_clamped((D * D + t * t - r * r) / (2 * D * t));
  double b = r * r * acos_clamped((D * D + r * r - t * t) / (2 * D * r));
  double k = (-D + t + r) * (D + t - r) * (D - t + r) * (D + t + r);
  return a + b - 0.5 * std::sqrt(std::max(k, 0.0));
}

}  // namespace

double ExpectedDistanceDiscrete(const UncertainPoint& p, Vec2 q) {
  double e = 0;
  for (size_t s = 0; s < p.sites().size(); ++s) {
    e += p.weights()[s] * RefDist(q, p.sites()[s]);
  }
  return e;
}

DiscreteRef ReferenceDiscrete(const std::vector<UncertainPoint>& pts, Vec2 q) {
  DiscreteRef ref;
  ref.q = q;
  const size_t n = pts.size();
  std::vector<double> lo(n), hi(n);
  ref.min_expected = kInf;
  for (size_t i = 0; i < n; ++i) {
    double mn = kInf, mx = 0;
    for (Vec2 s : pts[i].sites()) {
      double d = RefDist(q, s);
      mn = std::min(mn, d);
      mx = std::max(mx, d);
    }
    lo[i] = mn;
    hi[i] = mx;
    ref.min_expected = std::min(ref.min_expected, ExpectedDistanceDiscrete(pts[i], q));
  }
  Lemma21(lo, hi, &ref.nonzero, &ref.nonzero_ambiguous);

  // pi_i(q) = sum over sites s of P_i of w_s * prod_{j != i} Pr[d(q,P_j) >
  // d(q,s)]. Only sites within Delta(q) = min_j Delta_j can be nearest.
  double delta = *std::min_element(hi.begin(), hi.end());
  struct Site {
    double d;
    int owner;
    double w;
  };
  std::vector<Site> sites;
  for (size_t i = 0; i < n; ++i) {
    if (lo[i] > delta) continue;
    for (size_t s = 0; s < pts[i].sites().size(); ++s) {
      double d = RefDist(q, pts[i].sites()[s]);
      if (d <= delta) sites.push_back({d, static_cast<int>(i), pts[i].weights()[s]});
    }
  }
  std::sort(sites.begin(), sites.end(),
            [](const Site& a, const Site& b) { return a.d < b.d; });
  // Mass of each touched point's sites already passed (strictly closer).
  std::vector<std::pair<int, double>> closer;
  std::vector<std::pair<int, double>> pi;
  for (const Site& s : sites) {
    double survive = 1.0;
    for (auto [j, f] : closer) {
      if (j != s.owner) survive *= 1.0 - f;
    }
    if (survive > 0) pi.push_back({s.owner, s.w * survive});
    auto it = std::find_if(closer.begin(), closer.end(),
                           [&](const auto& c) { return c.first == s.owner; });
    if (it == closer.end()) {
      closer.push_back({s.owner, s.w});
    } else {
      it->second += s.w;
    }
  }
  std::sort(pi.begin(), pi.end());
  for (const auto& [id, p] : pi) {
    if (!ref.pi.empty() && ref.pi.back().first == id) {
      ref.pi.back().second += p;
    } else {
      ref.pi.push_back({id, p});
    }
  }
  return ref;
}

std::string CheckReferenceConsistency(const DiscreteRef& ref) {
  double total = 0;
  std::vector<int> support;
  for (auto [id, p] : ref.pi) {
    total += p;
    if (p > 0) support.push_back(id);
  }
  if (std::abs(total - 1.0) > kFloatSlack) {
    return "reference pi sums to " + std::to_string(total);
  }
  std::string s = CheckNonzeroSet(ref.nonzero, ref.nonzero_ambiguous, support);
  return s.empty() ? "" : "reference support vs Lemma 2.1: " + s;
}

std::string CheckDiscrete(const std::vector<UncertainPoint>& pts,
                          const DiscreteRef& ref, const QuerySpec& spec,
                          const QueryResult& ans) {
  const double slack = 2 * kEps + kFloatSlack;
  switch (spec.type) {
    case QueryType::kMostProbableNn:
      if (!ValidId(ans.nn, pts.size())) return "MostProbableNn: invalid id";
      if (PiOf(ref.pi, ans.nn) < MaxPi(ref.pi) - slack) {
        return "MostProbableNn: pi(answer) below max pi - 2 eps";
      }
      return "";
    case QueryType::kThreshold: {
      std::vector<int> reported;
      for (auto [id, est] : ans.ranked) {
        if (!ValidId(id, pts.size())) return "Threshold: invalid id";
        if (PiOf(ref.pi, id) < spec.tau - slack) {
          return "Threshold: reports id " + std::to_string(id) + " with pi < tau - 2 eps";
        }
        reported.push_back(id);
      }
      std::sort(reported.begin(), reported.end());
      for (auto [id, p] : ref.pi) {
        if (p >= spec.tau + kFloatSlack &&
            !std::binary_search(reported.begin(), reported.end(), id)) {
          return "Threshold: false negative id " + std::to_string(id);
        }
      }
      return "";
    }
    case QueryType::kTopK: {
      if (static_cast<int>(ans.ranked.size()) > spec.k) return "TopK: more than k";
      double kth = KthPi(ref.pi, spec.k);
      for (auto [id, est] : ans.ranked) {
        if (!ValidId(id, pts.size())) return "TopK: invalid id";
        if (PiOf(ref.pi, id) < kth - slack) {
          return "TopK: member " + std::to_string(id) + " below k-th pi - 2 eps";
        }
      }
      if (int left_out = TopKLeftOut(ref.pi, spec.k, ans.ranked, kFloatSlack);
          left_out >= 0) {
        return "TopK: leaves out id " + std::to_string(left_out);
      }
      return "";
    }
    case QueryType::kNonzeroNn:
      return CheckNonzeroSet(ref.nonzero, ref.nonzero_ambiguous, ans.ids);
    case QueryType::kExpectedDistanceNn: {
      if (!ValidId(ans.nn, pts.size())) return "ExpectedDistanceNn: invalid id";
      double e = ExpectedDistanceDiscrete(pts[ans.nn], ref.q);
      if (e > ref.min_expected + 1e-12 * (1 + ref.min_expected)) {
        return "ExpectedDistanceNn: E[d] of answer above the minimum";
      }
      return "";
    }
  }
  return "unknown query type";
}

double ExpectedDistanceDisk(Vec2 c, double r, Vec2 q, int intervals) {
  const double D = RefDist(q, c);
  const double lo = std::max(0.0, D - r), hi = D + r;
  const double area = std::numbers::pi * r * r;
  auto survive = [&](double t) { return 1.0 - LensArea(D, r, t) / area; };
  // E[d] = lo + integral over [lo, hi] of Pr[d > t]; the integrand has a
  // kink at |r - D|, so each side gets its own Simpson pass.
  const double kink = std::clamp(std::abs(r - D), lo, hi);
  double e = lo;
  for (auto [a, b] : {std::make_pair(lo, kink), std::make_pair(kink, hi)}) {
    if (b <= a) continue;
    const double h = (b - a) / intervals;
    double sum = survive(a) + survive(b);
    for (int k = 1; k < intervals; ++k) {
      sum += (k % 2 ? 4.0 : 2.0) * survive(a + k * h);
    }
    e += sum * h / 3.0;
  }
  return e;
}

DiskRef ReferenceDisk(const std::vector<UncertainPoint>& pts, Vec2 q,
                      int samples, uint64_t seed) {
  DiskRef ref;
  ref.q = q;
  const size_t n = pts.size();
  std::vector<double> lo(n), hi(n);
  for (size_t i = 0; i < n; ++i) {
    double d = RefDist(q, pts[i].center());
    lo[i] = std::max(0.0, d - pts[i].radius());
    hi[i] = d + pts[i].radius();
  }
  Lemma21(lo, hi, &ref.nonzero, &ref.nonzero_ambiguous);
  double delta = *std::min_element(hi.begin(), hi.end());

  // Only points that can come within Delta(q) can be nearest or minimize
  // E[d] (E[d] >= delta_i, and min E[d] <= Delta(q)).
  std::vector<int> cand;
  for (size_t i = 0; i < n; ++i) {
    if (lo[i] <= delta) cand.push_back(static_cast<int>(i));
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<int> wins(cand.size(), 0);
  for (int s = 0; s < samples; ++s) {
    double best = kInf;
    size_t arg = 0;
    for (size_t c = 0; c < cand.size(); ++c) {
      const UncertainPoint& p = pts[cand[c]];
      double rad = p.radius() * std::sqrt(u(rng));
      double ang = 2 * std::numbers::pi * u(rng);
      double dx = p.center().x + rad * std::cos(ang) - q.x;
      double dy = p.center().y + rad * std::sin(ang) - q.y;
      double d2 = dx * dx + dy * dy;
      if (d2 < best) {
        best = d2;
        arg = c;
      }
    }
    ++wins[arg];
  }
  for (size_t c = 0; c < cand.size(); ++c) {
    if (wins[c] > 0) ref.pi.push_back({cand[c], static_cast<double>(wins[c]) / samples});
    const UncertainPoint& p = pts[cand[c]];
    double coarse = ExpectedDistanceDisk(p.center(), p.radius(), q, 256);
    double fine = ExpectedDistanceDisk(p.center(), p.radius(), q, 512);
    ref.expected.push_back({cand[c], fine});
    ref.expected_err.push_back(std::abs(fine - coarse) + 1e-12);
  }
  ref.pi_sigma = 0.5 / std::sqrt(static_cast<double>(samples));
  return ref;
}

std::string CheckDiskExact(const std::vector<UncertainPoint>& pts,
                           const DiskRef& ref, const QuerySpec& spec,
                           const QueryResult& ans) {
  if (spec.type == QueryType::kNonzeroNn) {
    return CheckNonzeroSet(ref.nonzero, ref.nonzero_ambiguous, ans.ids);
  }
  if (spec.type != QueryType::kExpectedDistanceNn) return "not an exact check";
  if (!ValidId(ans.nn, pts.size())) return "ExpectedDistanceNn: invalid id";
  size_t best = 0;
  for (size_t c = 1; c < ref.expected.size(); ++c) {
    if (ref.expected[c].second < ref.expected[best].second) best = c;
  }
  for (size_t c = 0; c < ref.expected.size(); ++c) {
    if (ref.expected[c].first != ans.nn) continue;
    // Both reference errors plus the library's own quadrature tolerance.
    double allowed = ref.expected[best].second + ref.expected_err[best] +
                     ref.expected_err[c] + 1e-7 * (1 + ref.expected[best].second);
    if (ref.expected[c].second > allowed) {
      return "ExpectedDistanceNn: E[d] of answer above the minimum";
    }
    return "";
  }
  return "ExpectedDistanceNn: answer cannot minimize E[d] (delta_i > Delta)";
}

bool DiskProbabilityOff(const DiskRef& ref, const QuerySpec& spec,
                        const QueryResult& ans) {
  const double sigma3 = 3 * ref.pi_sigma;
  auto estimate_off = [&](int id, double est) {
    return std::abs(est - PiOf(ref.pi, id)) > kEps + sigma3;
  };
  switch (spec.type) {
    case QueryType::kMostProbableNn:
      return PiOf(ref.pi, ans.nn) < MaxPi(ref.pi) - 2 * kEps - 2 * sigma3;
    case QueryType::kThreshold: {
      std::vector<int> reported;
      for (auto [id, est] : ans.ranked) {
        if (estimate_off(id, est)) return true;
        if (PiOf(ref.pi, id) < spec.tau - 2 * kEps - sigma3) return true;
        reported.push_back(id);
      }
      std::sort(reported.begin(), reported.end());
      for (auto [id, p] : ref.pi) {
        if (p >= spec.tau + sigma3 &&
            !std::binary_search(reported.begin(), reported.end(), id)) {
          return true;
        }
      }
      return false;
    }
    case QueryType::kTopK: {
      if (static_cast<int>(ans.ranked.size()) > spec.k) return true;
      double kth = KthPi(ref.pi, spec.k);
      for (auto [id, est] : ans.ranked) {
        if (estimate_off(id, est)) return true;
        if (PiOf(ref.pi, id) < kth - 2 * kEps - sigma3) return true;
      }
      return TopKLeftOut(ref.pi, spec.k, ans.ranked, 2 * sigma3) >= 0;
    }
    default:
      return true;
  }
}

int DiskOffAllowance(int m) {
  return static_cast<int>(kDelta * m + 3 * std::sqrt(m * kDelta * (1 - kDelta)));
}

std::string CheckIdentical(const QueryResult& a, const QueryResult& b) {
  if (a.nn != b.nn) return "cached nn differs from recomputation";
  if (a.ids != b.ids) return "cached ids differ from recomputation";
  if (a.ranked.size() != b.ranked.size()) return "cached ranking differs in size";
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].first != b.ranked[i].first ||
        std::memcmp(&a.ranked[i].second, &b.ranked[i].second, sizeof(double)) != 0) {
      return "cached ranking differs from recomputation";
    }
  }
  return "";
}

}  // namespace pb
