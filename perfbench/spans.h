// In-memory span recorder for the traced replay.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the program is instrumented. Each lane
// (replay thread) appends to its own vector, so recording takes no lock.
// A span's self time is its duration minus the time covered by its child
// spans (children of one parent never overlap: a lane is one thread).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "http_load.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index in the same lane's vector; -1 = request root
  uint32_t request = 0;  ///< op index within the replayed stream
};

class SpanLog {
 public:
  explicit SpanLog(int lanes) : lanes_(lanes) {}

  /// RAII span: opened on construction, closed on End() or destruction.
  class Scope {
   public:
    Scope(SpanLog* log, int lane, const char* name, int32_t parent, uint32_t request)
        : spans_(&log->lanes_[lane]), index_(static_cast<int32_t>(spans_->size())) {
      Span s;
      s.name = name;
      s.parent = parent;
      s.request = request;
      s.start_ns = NowNs();
      spans_->push_back(s);
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void End() {
      if (!ended_) (*spans_)[index_].end_ns = NowNs();
      ended_ = true;
    }
    int32_t index() const { return index_; }

   private:
    std::vector<Span>* spans_;
    int32_t index_;
    bool ended_ = false;
  };

  void Reserve(size_t per_lane) {
    for (auto& v : lanes_) v.reserve(per_lane);
  }

  /// Self time (µs) of every span, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& spans : lanes_) {
      std::vector<int64_t> child_ns(spans.size(), 0);
      for (const Span& s : spans) {
        if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out[s.name].push_back(
            static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3);
      }
    }
    return out;
  }

  /// Inclusive duration (µs) of every span, grouped by span name.
  std::map<std::string, std::vector<double>> DurationsUs() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& spans : lanes_) {
      for (const Span& s : spans) {
        out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Writes one JSON object per span: id, parent, name, request, start and
  /// end (ns, steady clock). Ids are global across lanes. Returns the count.
  size_t Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return 0;
    size_t base = 0;
    for (const auto& spans : lanes_) {
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        long long parent = s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
        std::fprintf(f,
                     "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"request\":%u,"
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     base + i, parent, s.name, s.request,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
      base += spans.size();
    }
    std::fclose(f);
    return base;
  }

 private:
  std::vector<std::vector<Span>> lanes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
