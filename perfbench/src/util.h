#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file util.h
/// Small helpers shared by the perfbench program: clocks, process memory,
/// order statistics, the metric list printed as the run's result, and the
/// in-memory span log the traced mode writes out when the run ends.

namespace pb {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A field of /proc/self/status in MB (VmRSS = resident now, VmHWM =
/// peak resident). 0 when the file or field is missing.
inline double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  return 0.0;
}

/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// CPU ticks of the whole machine from the first line of /proc/stat: the
/// ticks it ran (user, nice, system, irq, softirq, steal) and, of those,
/// the ticks the host of a virtual machine took away (steal).
struct CpuTicks {
  double ran = 0;
  double steal = 0;
};

inline CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq + steal, steal};
}

/// Share of the ticks run between `a` and `b` that the host stole.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  double ran = b.ran - a.ran;
  return ran > 0 ? (b.steal - a.steal) / ran : 0.0;
}

/// Median of per-block values over the less-stolen half of the blocks:
/// those whose steal share is at most the median share (every block when
/// the host took nothing). When the host takes CPU time from the machine
/// in spells, the blocks it spared measure the program.
inline double LessStolenMedian(const std::vector<double>& values,
                               const std::vector<double>& steal) {
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double cut = sorted.empty() ? 0.0 : sorted[(sorted.size() - 1) / 2];
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(values[i]);
  }
  return Median(std::move(kept));
}

/// The metrics of one run, in insertion order.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// The benchmark's own spans: one per call into a layer, plus the
/// server's stage spans imported under the call that produced them. Kept
/// in memory; written as JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  int Begin(const std::string& name) {
    spans_.push_back({name, -1, NowNs(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = NowNs(); }
  /// Appends spans recorded elsewhere (ids are indices into `spans`,
  /// times relative to that recorder's epoch at `offset_ns` on ours).
  template <class Foreign>
  void Import(const std::vector<Foreign>& spans, int parent, int64_t offset_ns) {
    const int base = static_cast<int>(spans_.size());
    for (const auto& s : spans) {
      if (s.end_ns < 0) continue;
      spans_.push_back({s.name, s.parent < 0 ? parent : base + s.parent,
                        s.start_ns + offset_ns, s.end_ns + offset_ns});
    }
  }
  size_t size() const { return spans_.size(); }

  /// Per span name: {count, total ns, self ns}, where self time is a
  /// span's duration minus the part its children cover.
  std::map<std::string, std::vector<double>> SelfTimes() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& row = out[spans_[i].name];
      row.resize(3, 0.0);
      double total = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      row[0] += 1;
      row[1] += total;
      row[2] += std::max(0.0, total - static_cast<double>(child[i]));
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}";
    }
    out << "\n], \"self_time\": {";
    bool first = true;
    for (const auto& [name, row] : SelfTimes()) {
      out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": "
          << row[0] << ", \"total_us\": " << row[1] / 1e3
          << ", \"self_us\": " << row[2] / 1e3 << "}";
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace pb

#endif  // PERFBENCH_UTIL_H_
