// End-to-end benchmark for NETMARK's user paths.
//
//   perfbench --workload <ingest|xdb_read|xdb_churn|federated> --seed N
//             --seconds S --trace <0|1> --work-dir DIR --out-dir DIR
//             [--quick] [--stall-ms MS] [--stream-hash]
//
// Untraced run (always): sets the system up (timed several times; the
// median is setup_s), computes reference answers through independent paths,
// then drives the workload's seeded operation stream over HTTP against
// Netmark::StartServer and checks every response. With --trace 1 it then
// replays the reference-rate part of the same stream in-process, with a
// span around each call into a layer's public function, and derives the
// per-layer metrics from the spans and from Netmark::metrics().
//
// The last stdout line is the result object. A full report (machine
// descriptor, every named metric with its unit and sample count, per-layer
// breakdown) goes to <out-dir>/report.json, spans to <out-dir>/spans.jsonl.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/clock.h"
#include "convert/registry.h"
#include "core/netmark.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "http_load.h"
#include "query/compose.h"
#include "query/executor.h"
#include "query/xdb_query.h"
#include "server/http_client.h"
#include "server/netmark_service.h"
#include "spans.h"
#include "workload/corpus.h"
#include "workload/query_workload.h"
#include "xml/serializer.h"
#include "xmlstore/prepared_document.h"
#include "xslt/stylesheet.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace netmark;
namespace fs = std::filesystem;
using perfbench::NowNs;
using perfbench::Quantiles;
using perfbench::Sample;
using perfbench::Summarize;

// ---------------------------------------------------------------------------
// Workload definitions.

enum Kind : uint8_t { kPut = 0, kXdb = 1, kDocGet = 2, kFed = 3 };
constexpr int kKinds = 4;
const char* const kKindName[kKinds] = {"put", "xdb", "doc_get", "fed"};

struct Spec {
  std::string name;
  size_t preload = 0;          ///< docs in the served store before timing
  int lanes = 4;               ///< connections carrying the main stream
  double writer_rate = 0;      ///< PUT/s on one extra connection (churn)
  double rates[3] = {0, 0, 0}; ///< open-loop rates: low, reference, high
  double limit_ms = 0;         ///< fixed tail-latency limit for the slo rate
  bool federated = false;
  size_t fed_store_docs = 0;   ///< docs per federated store / source
  int setups = 3;              ///< setup repetitions (setup_s is the median)
  /// Closed-loop ops per second the saturation phase is sized for: it runs
  /// a fixed amount of work (this rate times its share of --seconds) to
  /// completion, so a faster system finishes sooner rather than doing
  /// different work.
  double nominal_per_s = 0;
};

// Rates sit below the sustainable rate on a 4-core host so the reference
// rate measures latency, not queueing; the high rate probes the limit.
Spec MakeSpec(const std::string& name, bool quick) {
  Spec s;
  s.name = name;
  if (name == "ingest") {
    s.lanes = 2;
    s.setups = 21;  // an empty store opens in milliseconds
    s.nominal_per_s = 500;
  } else if (name == "xdb_read") {
    // Sized so the hit-list working set of the query mix fits the default
    // 8 MiB result cache: this workload measures the cached path. At 1600
    // docs the set is about 23 MiB and the cache thrashes (FINDINGS.md).
    s.preload = quick ? 100 : 300;
    s.rates[0] = 100, s.rates[1] = 200, s.rates[2] = 400;
    s.limit_ms = 50;
    s.nominal_per_s = 1500;
  } else if (name == "xdb_churn") {
    s.preload = quick ? 200 : 1600;
    s.lanes = 3;
    s.writer_rate = 20;
    s.rates[0] = 10, s.rates[1] = 20, s.rates[2] = 35;
    s.limit_ms = 200;
    s.nominal_per_s = 50;
  } else if (name == "federated") {
    s.federated = true;
    s.fed_store_docs = quick ? 30 : 200;
    s.rates[0] = 30, s.rates[1] = 60, s.rates[2] = 100;
    s.limit_ms = 200;
    s.nominal_per_s = 200;
  } else {
    s.name.clear();
  }
  return s;
}

constexpr int kFedLocalStores = 6;
constexpr double kXdbShare = 0.8;    // xdb_read / xdb_churn: rest is GET /docs
constexpr double kXsltShare = 0.25;  // of /xdb requests, rendered via xslt=report
constexpr double kDocZipfTheta = 0.9;
constexpr uint64_t kQueryMixSeed = 2005;
constexpr size_t kQueryPool = 200;

// Phase layout of a read workload, as shares of --seconds.
struct PhasePlan {
  const char* name;
  int rate_index;  // into Spec::rates; -1 = closed-loop saturation
  double share;
};
constexpr PhasePlan kReadPhases[] = {
    {"low", 0, 0.1}, {"reference", 1, 0.55}, {"high", 2, 0.1}, {"saturation", -1, 0.25}};
constexpr int kReferencePhase = 1;

constexpr const char* kReportSheet =
    "<xsl:stylesheet>"
    "<xsl:template match=\"/\">"
    "<report count=\"{results/@count}\" complete=\"{results/@complete}\">"
    "<xsl:for-each select=\"results/result\"><xsl:sort select=\"@doc\"/>"
    "<section doc=\"{@doc}\" docid=\"{@docid}\" source=\"{@source}\">"
    "<h><xsl:value-of select=\"context\"/></h>"
    "<body><xsl:value-of select=\"content\"/></body></section>"
    "</xsl:for-each></report>"
    "</xsl:template>"
    "</xsl:stylesheet>";

// ---------------------------------------------------------------------------
// The seeded operation stream.

struct Op {
  uint8_t kind = kXdb;
  bool xslt = false;
  uint32_t arg = 0;  ///< query id (xdb/fed) or document index (put/doc_get)
};

struct Phase {
  std::string name;
  double rate = 0;  ///< 0 = closed loop
  double seconds = 0;
  std::vector<Op> ops;
  std::vector<uint8_t> kinds;
};

struct Stream {
  std::vector<workload::GeneratedDoc> preload;  ///< served store's corpus
  std::vector<workload::GeneratedDoc> puts;     ///< PUT bodies (ingest, churn)
  std::vector<std::vector<workload::GeneratedDoc>> fed_corpora;  ///< per source
  std::vector<std::string> queries;  ///< distinct query strings, no xslt
  std::vector<size_t> query_freq;
  std::vector<Phase> phases;
  Phase writes;  ///< churn writer (open loop on its own connection)
  std::vector<uint32_t> hot_docs;  ///< Zipf rank -> preload index
};

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  perfbench::Rng r(seed * 0x100000001B3ULL + salt);
  return r.Next();
}

std::vector<workload::GeneratedDoc> Corpus(uint64_t seed, size_t n,
                                           const std::string& prefix = "") {
  workload::CorpusGenerator gen(seed);
  auto docs = gen.MixedCorpus(n);
  if (!prefix.empty()) {
    for (auto& d : docs) d.file_name = prefix + d.file_name;
  }
  return docs;
}

Stream MakeStream(const Spec& spec, uint64_t seed, double seconds, bool quick) {
  Stream st;
  perfbench::Rng rng(SubSeed(seed, 1));
  if (spec.name == "ingest") {
    const size_t n = static_cast<size_t>(spec.nominal_per_s * seconds / (quick ? 10 : 1));
    st.puts = Corpus(SubSeed(seed, 2), n);
    Phase p;
    p.name = "saturation";
    p.seconds = seconds;
    for (size_t i = 0; i < st.puts.size(); ++i) {
      p.ops.push_back(Op{kPut, false, static_cast<uint32_t>(i)});
    }
    st.phases.push_back(std::move(p));
  } else {
    if (spec.federated) {
      for (int s = 0; s < kFedLocalStores + 2; ++s) {
        st.fed_corpora.push_back(
            Corpus(SubSeed(seed, 100 + s), spec.fed_store_docs));
      }
    } else {
      st.preload = Corpus(SubSeed(seed, 2), spec.preload);
      st.hot_docs.resize(st.preload.size());
      for (size_t i = 0; i < st.hot_docs.size(); ++i) st.hot_docs[i] = i;
      for (size_t i = st.hot_docs.size(); i > 1; --i) {
        std::swap(st.hot_docs[i - 1], st.hot_docs[rng.Below(i)]);
      }
    }
    // Each phase's request multiset — which queries, how often, which via
    // XSLT, how many document reads — is drawn once with a fixed seed: it is
    // the workload's mix. The run seed shuffles the order and picks the
    // documents read (and generates the corpora), so runs differ in inputs
    // without the heavy-tailed query mix dominating their spread.
    workload::QueryWorkload queries(kQueryMixSeed);
    perfbench::Rng mix(kQueryMixSeed);
    std::map<std::string, uint32_t> intern;
    perfbench::Zipf doc_zipf(std::max<size_t>(1, st.preload.size()), kDocZipfTheta);
    for (const PhasePlan& plan : kReadPhases) {
      Phase p;
      p.name = plan.name;
      p.seconds = seconds * plan.share;
      p.rate = plan.rate_index < 0 ? 0 : spec.rates[plan.rate_index];
      const double budget_rate = p.rate > 0 ? p.rate : spec.nominal_per_s;
      const size_t n = std::max<size_t>(1, static_cast<size_t>(budget_rate * p.seconds));
      for (size_t i = 0; i < n; ++i) {
        Op op;
        if (!spec.federated && mix.Uniform() >= kXdbShare) {
          op.kind = kDocGet;
          op.arg = st.hot_docs[doc_zipf.Sample(rng)];
        } else {
          op.kind = spec.federated ? kFed : kXdb;
          // The distinct-query set is the first kQueryPool distinct draws
          // (the head of the generator's distribution); later draws outside
          // it are redrawn, so the set stays a few hundred however long the
          // run is.
          std::string q = queries.Next().ToQueryString();
          while (st.queries.size() >= kQueryPool && intern.count(q) == 0) {
            q = queries.Next().ToQueryString();
          }
          auto [it, fresh] = intern.emplace(q, static_cast<uint32_t>(st.queries.size()));
          if (fresh) {
            st.queries.push_back(q);
            st.query_freq.push_back(0);
          }
          op.arg = it->second;
          ++st.query_freq[op.arg];
          // Federated queries carry no xslt=: the remote source pushes the
          // parameter down to the remote instance, whose answer the mediator
          // then cannot merge (FINDINGS.md), so every one would fail.
          op.xslt = !spec.federated && mix.Uniform() < kXsltShare;
        }
        p.ops.push_back(op);
      }
      for (size_t i = p.ops.size(); i > 1; --i) std::swap(p.ops[i - 1], p.ops[rng.Below(i)]);
      st.phases.push_back(std::move(p));
    }
    if (spec.writer_rate > 0) {
      const size_t n = static_cast<size_t>(spec.writer_rate * seconds) + 1;
      st.puts = Corpus(SubSeed(seed, 4), n, "churn_");
      st.writes.name = "writer";
      st.writes.rate = spec.writer_rate;
      st.writes.seconds = seconds;
      for (size_t i = 0; i < n; ++i) {
        st.writes.ops.push_back(Op{kPut, false, static_cast<uint32_t>(i)});
      }
    }
  }
  auto fill_kinds = [](Phase& p) {
    for (const Op& op : p.ops) p.kinds.push_back(op.kind);
  };
  fill_kinds(st.writes);
  for (Phase& p : st.phases) fill_kinds(p);
  return st;
}

uint64_t StreamHash(const Stream& st) {
  uint64_t h = perfbench::Fnv1a("perfbench-stream-v1");
  auto docs = [&](const std::vector<workload::GeneratedDoc>& v) {
    for (const auto& d : v) {
      h = perfbench::Fnv1a(d.file_name, h);
      h = perfbench::Fnv1a(d.content, h);
    }
  };
  docs(st.preload);
  docs(st.puts);
  for (const auto& c : st.fed_corpora) docs(c);
  for (const auto& q : st.queries) h = perfbench::Fnv1a(q, h);
  auto phase = [&](const Phase& p) {
    h = perfbench::Fnv1a(p.name + "@" + std::to_string(p.rate), h);
    for (const Op& op : p.ops) {
      h = perfbench::Fnv1a(
          std::to_string(op.kind) + ":" + std::to_string(op.arg) + (op.xslt ? "x" : ""), h);
    }
  };
  phase(st.writes);
  for (const Phase& p : st.phases) phase(p);
  return h;
}

// ---------------------------------------------------------------------------
// Answer signatures: the multiset of (source, docid) hits in a results or
// report document, as sorted keys.

uint64_t HitKey(std::string_view source, int64_t docid) {
  uint64_t s = source.empty() ? 0 : (perfbench::Fnv1a(source) & 0xFFFFFFFFULL) | 1;
  return (s << 32) | (static_cast<uint64_t>(docid) & 0xFFFFFFFFULL);
}
uint64_t KeySource(uint64_t key) { return key >> 32; }

std::vector<uint64_t> ScanHits(std::string_view body) {
  std::vector<uint64_t> keys;
  constexpr std::string_view kDocid = " docid=\"";
  size_t pos = 0;
  while ((pos = body.find(kDocid, pos)) != std::string_view::npos) {
    size_t v = pos + kDocid.size();
    int64_t docid = std::strtoll(body.data() + v, nullptr, 10);
    const size_t tag_start = body.rfind('<', pos);
    const size_t tag_end = body.find('>', pos);
    std::string_view tag;
    if (tag_start != std::string_view::npos && tag_end != std::string_view::npos) {
      tag = body.substr(tag_start, tag_end - tag_start);
    }
    std::string_view source;
    const size_t sp = tag.find(" source=\"");
    if (sp != std::string_view::npos) {
      size_t b = sp + 9;
      source = tag.substr(b, tag.find('"', b) - b);
    }
    keys.push_back(HitKey(source, docid));
    pos = v;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> KeysOf(const std::vector<query::QueryHit>& hits,
                             std::string_view source = "") {
  std::vector<uint64_t> keys;
  for (const auto& h : hits) keys.push_back(HitKey(source, h.doc_id));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// Registry readers (by metric name, so the benchmark depends only on the
// exported names).

struct Registry {
  observability::MetricsSnapshot snap;

  double Counter(const std::string& name) const {
    double v = 0;
    for (const auto& c : snap.counters) {
      if (c.name == name) v += static_cast<double>(c.value);
    }
    return v;
  }
  double Gauge(const std::string& name) const {
    double v = 0;
    for (const auto& g : snap.gauges) {
      if (g.name == name) v += g.value;
    }
    return v;
  }
  /// Merged histogram over every label set: count, sum, cumulative buckets.
  struct Hist {
    double count = 0, sum = 0;
    std::map<int64_t, double> cumulative;
    double Quantile(double q) const {
      if (count <= 0) return 0;
      double target = q * count, prev_bound = 0, prev_count = 0;
      for (const auto& [bound, c] : cumulative) {
        if (c >= target) {
          if (bound == INT64_MAX) return prev_bound;
          double frac = c > prev_count ? (target - prev_count) / (c - prev_count) : 0;
          return prev_bound + frac * (static_cast<double>(bound) - prev_bound);
        }
        prev_bound = static_cast<double>(bound);
        prev_count = c;
      }
      return prev_bound;
    }
  };
  Hist Histogram(const std::string& name) const {
    Hist h;
    for (const auto& s : snap.histograms) {
      if (s.name != name) continue;
      h.count += static_cast<double>(s.count);
      h.sum += static_cast<double>(s.sum);
      for (const auto& [bound, c] : s.buckets) h.cumulative[bound] += static_cast<double>(c);
    }
    return h;
  }
  /// this - before, bucket-wise.
  Hist HistogramDelta(const Registry& before, const std::string& name) const {
    Hist a = Histogram(name), b = before.Histogram(name);
    a.count -= b.count;
    a.sum -= b.sum;
    for (auto& [bound, c] : a.cumulative) c -= b.cumulative.count(bound) ? b.cumulative.at(bound) : 0;
    return a;
  }
};

Registry Snapshot(observability::MetricsRegistry* r) { return Registry{r->Collect()}; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// System under test.

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), st.ToString().c_str());
    std::exit(2);
  }
}
template <typename T>
T Must(Result<T> r, const std::string& what) {
  Must(r.status(), what);
  return std::move(r).ValueOrDie();
}

std::unique_ptr<Netmark> OpenInstance(const fs::path& dir) {
  NetmarkOptions o;
  o.data_dir = dir.string();
  return Must(Netmark::Open(o), "open " + dir.string());
}

struct Instance {
  fs::path dir;
  // Federation parts, declared before `nm` so the mediator (whose router
  // references them) is destroyed first.
  std::vector<std::unique_ptr<xmlstore::XmlStore>> fed_stores;
  std::vector<std::string> fed_store_names;
  std::unique_ptr<Netmark> remote;
  std::string content_only_name;
  std::unique_ptr<Netmark> nm;  ///< the served instance (mediator if federated)
  std::vector<int64_t> doc_ids;  ///< preload index -> doc id
  size_t input_bytes = 0;        ///< corpus bytes held by the stores

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    if (nm) nm->StopServer();
    nm.reset();
    if (remote) remote->StopServer();
  }
};

std::unique_ptr<Instance> SetUp(const Spec& spec, const Stream& st, const fs::path& dir) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  fs::create_directories(dir);
  if (!spec.federated) {
    inst->nm = OpenInstance(dir / "store");
    for (const auto& d : st.preload) {
      inst->doc_ids.push_back(Must(inst->nm->IngestContent(d.file_name, d.content), "preload"));
      inst->input_bytes += d.content.size();
    }
  } else {
    const convert::ConverterRegistry converters = convert::ConverterRegistry::Default();
    for (int s = 0; s < kFedLocalStores; ++s) {
      auto store = Must(xmlstore::XmlStore::Open((dir / ("s" + std::to_string(s))).string()),
                        "open source store");
      for (const auto& d : st.fed_corpora[s]) {
        xmlstore::DocumentInfo info;
        info.file_name = d.file_name;
        info.file_size = static_cast<int64_t>(d.content.size());
        Must(store->InsertDocument(Must(converters.Convert(d.file_name, d.content), "convert"),
                                   info).status(),
             "source insert");
        inst->input_bytes += d.content.size();
      }
      inst->fed_stores.push_back(std::move(store));
      inst->fed_store_names.push_back("s" + std::to_string(s));
    }
    inst->remote = OpenInstance(dir / "remote");
    for (const auto& d : st.fed_corpora[kFedLocalStores]) {
      Must(inst->remote->IngestContent(d.file_name, d.content).status(), "remote preload");
      inst->input_bytes += d.content.size();
    }
    Must(inst->remote->StartServer(0), "remote server");
    auto lessons = std::make_shared<federation::ContentOnlySource>("lessons");
    for (const auto& d : st.fed_corpora[kFedLocalStores + 1]) {
      lessons->AddDocument(d.file_name, Must(converters.Convert(d.file_name, d.content), "convert"));
    }
    inst->content_only_name = lessons->name();
    inst->nm = OpenInstance(dir / "mediator");
    std::vector<std::string> names = inst->fed_store_names;
    for (int s = 0; s < kFedLocalStores; ++s) {
      Must(inst->nm->RegisterSource(std::make_shared<federation::LocalStoreSource>(
               names[s], inst->fed_stores[s].get())),
           "register source");
    }
    Must(inst->nm->RegisterSource(lessons), "register content-only source");
    names.push_back(lessons->name());
    Must(inst->nm->RegisterSource(std::make_shared<federation::RemoteSource>(
             "remote", std::make_unique<server::SocketTransport>("127.0.0.1",
                                                                 inst->remote->server_port()))),
         "register remote source");
    names.push_back("remote");
    Must(inst->nm->DefineDatabank("bank", names), "databank");
  }
  Must(inst->nm->RegisterStylesheet("report", kReportSheet), "stylesheet");
  Must(inst->nm->StartServer(0), "server");
  return inst;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The run: shared state for the untraced and traced paths.

class Failures {
 public:
  void Add(bool wrong_answer, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    (wrong_answer ? wrong_ : errors_) += 1;
    if (examples_.size() < 8) examples_.push_back(what);
  }
  size_t wrong() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wrong_;
  }
  size_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wrong_ + errors_;
  }
  std::vector<std::string> examples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return examples_;
  }

 private:
  mutable std::mutex mu_;
  size_t wrong_ = 0;   ///< responses with a wrong answer
  size_t errors_ = 0;  ///< non-2xx, shed, transport errors
  std::vector<std::string> examples_;
};

struct PhaseResult {
  std::string name;
  double rate = 0;
  std::vector<Sample> samples;
};

/// Everything one run sets up, measures and checks.
struct Run {
  Spec spec;
  uint64_t seed = 0;
  double seconds = 0;
  int stall_ms = 0;
  Stream st;
  fs::path work;  ///< stores live here; removed at exit
  fs::path out;   ///< report and spans
  std::unique_ptr<Instance> inst;
  std::string target_suffix;  ///< "&databank=bank" when federated
  // Set-up and references.
  std::vector<double> setup_times;
  double warm_s = 0;
  double hitlist_bytes = 0;  ///< result-cache footprint of all warm-up answers
  double reference_s = 0;
  size_t full_scan_checked = 0;
  std::vector<std::vector<uint64_t>> expected;  ///< per query id (warm-up answer)
  std::vector<uint64_t> doc_hash;                ///< per preload index
  // Measurement.
  std::vector<PhaseResult> results;
  PhaseResult writer;
  Registry before, after;  ///< Netmark::metrics() around the timed phases
  double mvcc_peak = 0;
  std::vector<int64_t> put_ids;  ///< per put index (0 = not acked)
  size_t acked_puts = 0, acked_bytes = 0;
  // Verdict.
  Failures fail;
  std::vector<std::string> problems;  ///< reference and post-run check failures

  std::string XdbTarget(const Op& op) const {
    return "/xdb?" + st.queries[op.arg] + (op.xslt ? "&xslt=report" : "") + target_suffix;
  }

  bool CheckQueryBody(const Op& op, int status, const std::string& body) {
    if (status != 200) {
      fail.Add(false, std::string(kKindName[op.kind]) + " status " + std::to_string(status));
      return false;
    }
    if (body.find("complete=\"false\"") != std::string::npos) {
      fail.Add(true, "incomplete answer for " + st.queries[op.arg]);
      return false;
    }
    std::vector<uint64_t> got = ScanHits(body);
    const std::vector<uint64_t>& want = expected[op.arg];
    const bool ok = spec.writer_rate > 0
                        ? std::includes(got.begin(), got.end(), want.begin(), want.end())
                        : got == want;
    if (!ok) {
      fail.Add(true, "wrong hits for " + st.queries[op.arg] + ": got " +
                         std::to_string(got.size()) + " want " + std::to_string(want.size()));
    }
    return ok;
  }
  bool CheckDocBody(const Op& op, int status, const std::string& body) {
    if (status != 200) {
      fail.Add(false, "doc_get status " + std::to_string(status));
      return false;
    }
    if (perfbench::Fnv1a(body) != doc_hash[op.arg]) {
      fail.Add(true, "doc_get body differs for doc " + std::to_string(inst->doc_ids[op.arg]));
      return false;
    }
    return true;
  }
  bool CheckPut(const Op& op, int status, const std::string& body) {
    if (status != 201) {
      fail.Add(false, "put status " + std::to_string(status) + ": " + body.substr(0, 120));
      return false;
    }
    put_ids[op.arg] = std::atoll(body.c_str());
    if (put_ids[op.arg] <= 0) {
      fail.Add(true, "put returned no id");
      return false;
    }
    return true;
  }
};

/// Per-lane HTTP executor over `phase`'s ops. Lane threads hold `this`.
class HttpLanes {
 public:
  HttpLanes(Run* run, int lanes) : run_(run) {
    for (int i = 0; i < lanes; ++i) {
      conns_.push_back(std::make_unique<perfbench::Connection>(run->inst->nm->server_port()));
    }
  }
  HttpLanes(const HttpLanes&) = delete;
  HttpLanes& operator=(const HttpLanes&) = delete;
  perfbench::OpFn Fn(const Phase& phase, bool stall = false) {
    return [this, &phase, stall](int lane, size_t i) {
      const Op& op = phase.ops[i];
      if (stall && lane == 0 && !stalled_ && i >= phase.ops.size() / 2 && op.kind != kDocGet) {
        stalled_ = true;  // once, on lane 0's first op past the middle
        std::this_thread::sleep_for(std::chrono::milliseconds(run_->stall_ms));
      }
      perfbench::Response resp;
      std::string err;
      bool sent;
      if (op.kind == kPut) {
        const auto& d = run_->st.puts[op.arg];
        sent = conns_[lane]->Send("PUT", "/docs/" + d.file_name, d.content, &resp, &err);
      } else if (op.kind == kDocGet) {
        sent = conns_[lane]->Send(
            "GET", "/docs/" + std::to_string(run_->inst->doc_ids[op.arg]), "", &resp, &err);
      } else {
        sent = conns_[lane]->Send("GET", run_->XdbTarget(op), "", &resp, &err);
      }
      if (!sent) {
        run_->fail.Add(false, std::string(kKindName[op.kind]) + " transport: " + err);
        return false;
      }
      if (op.kind == kPut) return run_->CheckPut(op, resp.status, resp.body);
      if (op.kind == kDocGet) return run_->CheckDocBody(op, resp.status, resp.body);
      return run_->CheckQueryBody(op, resp.status, resp.body);
    };
  }

 private:
  Run* run_;
  std::vector<std::unique_ptr<perfbench::Connection>> conns_;
  bool stalled_ = false;  ///< touched only by lane 0's thread
};

// ---------------------------------------------------------------------------
// Metrics bookkeeping.

struct Metric {
  double value;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + Num(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples, int kind, bool ok_only = true) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.kind == kind && (s.ok || !ok_only)) out.push_back(s.latency_ms());
  }
  return out;
}

/// A rate meets the limit when its tail latency is within it, every request
/// succeeded, and the backlog did not grow (the last quarter's median
/// latency stays within twice the first quarter's, plus 1 ms).
bool MeetsLimit(const PhaseResult& p, int kind, double limit_ms) {
  std::vector<double> lat;
  for (const Sample& s : p.samples) {
    if (s.kind != kind) continue;
    if (!s.ok) return false;
    lat.push_back(s.latency_ms());
  }
  if (lat.size() < 8) return false;
  if (Summarize(lat).tail > limit_ms) return false;
  const size_t q = lat.size() / 4;
  std::vector<double> first(lat.begin(), lat.begin() + q), last(lat.end() - q, lat.end());
  return Summarize(last).p50 <= 2 * Summarize(first).p50 + 1.0;
}

// ---------------------------------------------------------------------------
// Traced in-process replay.

class Replayer {
 public:
  Replayer(Run* run, xmlstore::XmlStore* write_store, int lanes)
      : run_(run),
        store_(run->inst->nm->store()),
        write_store_(write_store),
        converters_(convert::ConverterRegistry::Default()),
        sheet_(Must(xslt::Stylesheet::Parse(kReportSheet), "stylesheet")),
        executor_(store_),
        log_(lanes) {
    executor_.set_result_cache(run->inst->nm->service()->result_cache());
    executor_.set_plan_cache(run->inst->nm->service()->plan_cache());
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  perfbench::OpFn Fn(const Phase& phase, int lane_offset, const std::string& put_prefix) {
    return [this, &phase, lane_offset, put_prefix](int lane, size_t i) {
      return Replay(phase.ops[i], lane + lane_offset, static_cast<uint32_t>(i), put_prefix);
    };
  }

  perfbench::SpanLog& log() { return log_; }
  struct ExecTotals {
    double executed = 0, nodes_walked = 0, sections_built = 0, hits = 0;
  };
  ExecTotals totals() {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

 private:
  using Scope = perfbench::SpanLog::Scope;

  bool Replay(const Op& op, int lane, uint32_t request, const std::string& put_prefix) {
    static const char* const kRoot[kKinds] = {"request.put", "request.xdb", "request.doc_get",
                                              "request.fed"};
    Scope root(&log_, lane, kRoot[op.kind], -1, request);
    const int32_t parent = root.index();
    if (op.kind == kPut) {
      const auto& d = run_->st.puts[op.arg];
      const std::string name = put_prefix + d.file_name;
      std::optional<Result<xml::Document>> doc;
      {
        Scope s(&log_, lane, "convert.upmark", parent, request);
        doc.emplace(converters_.Convert(name, d.content));
      }
      if (!doc->ok()) return false;
      {
        // The replace-on-PUT lookup the service makes before inserting.
        Scope s(&log_, lane, "xmlstore.list", parent, request);
        xmlstore::XmlStore::ReadSnapshot snap = write_store_->BeginRead();
        auto listed = write_store_->ListDocuments();
        if (!listed.ok()) return false;
      }
      xmlstore::DocumentInfo info;
      info.file_name = name;
      info.file_date = WallSeconds();
      info.file_size = static_cast<int64_t>(d.content.size());
      std::optional<xmlstore::PreparedDocument> prepared;
      {
        Scope s(&log_, lane, "xmlstore.prepare", parent, request);
        prepared.emplace(xmlstore::PrepareDocument(**doc, info, write_store_->node_types()));
      }
      Scope s(&log_, lane, "xmlstore.insert", parent, request);
      return write_store_->InsertPrepared(*prepared).ok();
    }
    if (op.kind == kDocGet) {
      std::optional<xmlstore::XmlStore::ReadSnapshot> snap;
      {
        Scope s(&log_, lane, "xmlstore.pin", parent, request);
        snap.emplace(store_->BeginRead());
      }
      std::optional<Result<xml::Document>> doc;
      {
        Scope s(&log_, lane, "xmlstore.reconstruct", parent, request);
        doc.emplace(store_->Reconstruct(run_->inst->doc_ids[op.arg]));
      }
      snap.reset();
      if (!doc->ok()) return false;
      std::string body;
      {
        Scope s(&log_, lane, "xml.serialize", parent, request);
        xml::SerializeOptions opts;
        opts.declaration = true;
        body = xml::Serialize(**doc, opts);
      }
      return perfbench::Fnv1a(body) == run_->doc_hash[op.arg];
    }
    // /xdb, local or federated.
    const std::string target = run_->XdbTarget(op);
    std::optional<Result<query::XdbQuery>> q;
    {
      Scope s(&log_, lane, "query.parse", parent, request);
      q.emplace(query::ParseXdbQuery(std::string_view(target).substr(5)));
    }
    if (!q->ok()) return false;
    xml::Document results;
    if (op.kind == kFed) {
      std::optional<Result<federation::FederatedResult>> fed;
      {
        Scope s(&log_, lane, "federation.fanout", parent, request);
        fed.emplace(run_->inst->nm->router()->QueryFederated("bank", **q));
      }
      if (!fed->ok()) return false;
      Scope s(&log_, lane, "federation.compose", parent, request);
      results = server::ComposeFederatedResults(**q, **fed);
    } else {
      std::optional<xmlstore::XmlStore::ReadSnapshot> snap;
      {
        Scope s(&log_, lane, "xmlstore.pin", parent, request);
        snap.emplace(store_->BeginRead());
      }
      query::QueryExecutor::Stats stats;
      std::optional<Result<std::vector<query::QueryHit>>> hits;
      {
        Scope s(&log_, lane, "query.execute", parent, request);
        hits.emplace(executor_.Execute(**q, *snap, &stats));
      }
      if (!hits->ok()) return false;
      if (stats.cache_hits == 0) {
        std::lock_guard<std::mutex> lock(mu_);
        totals_.executed += 1;
        totals_.nodes_walked += static_cast<double>(stats.nodes_walked);
        totals_.sections_built += static_cast<double>(stats.sections_built);
        totals_.hits += static_cast<double>((*hits)->size());
      }
      std::optional<Result<xml::Document>> composed;
      {
        Scope s(&log_, lane, "query.compose", parent, request);
        composed.emplace(query::ComposeResults(*store_, **q, **hits));
      }
      snap.reset();
      if (!composed->ok()) return false;
      results = std::move(**composed);
    }
    if (!(*q)->xslt.empty()) {
      Scope s(&log_, lane, "xslt.transform", parent, request);
      auto transformed = xslt::Transform(sheet_, results);
      if (!transformed.ok()) return false;
      results = std::move(*transformed);
    }
    std::string body;
    {
      Scope s(&log_, lane, "xml.serialize", parent, request);
      body = xml::Serialize(results);
    }
    std::vector<uint64_t> got = ScanHits(body);
    const auto& want = run_->expected[op.arg];
    return run_->spec.writer_rate > 0
               ? std::includes(got.begin(), got.end(), want.begin(), want.end())
               : got == want;
  }

  Run* run_;
  xmlstore::XmlStore* store_;
  xmlstore::XmlStore* write_store_;
  convert::ConverterRegistry converters_;
  xslt::Stylesheet sheet_;
  query::QueryExecutor executor_;
  perfbench::SpanLog log_;
  std::mutex mu_;
  ExecTotals totals_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
  bool quick = false;
  int stall_ms = 0;
  bool stream_hash = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--quick") {
      a->quick = true;
    } else if (k == "--stream-hash") {
      a->stream_hash = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--stall-ms") {
      a->stall_ms = std::atoi(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
}

double SecondsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e9; }

/// Sets the system up `times` times, keeping the last instance.
void SetUpTimed(Run& run, int times) {
  for (int k = 0; k < times; ++k) {
    run.inst.reset();
    fs::remove_all(run.work / ("setup" + std::to_string(k - 1)));
    const int64_t t0 = NowNs();
    run.inst = SetUp(run.spec, run.st, run.work / ("setup" + std::to_string(k)));
    run.setup_times.push_back(SecondsSince(t0));
  }
}

/// The reference body of every preloaded document: in-process reconstruct
/// and serialize, recorded before any load.
void RecordDocuments(Run& run) {
  xmlstore::XmlStore* store = run.inst->nm->store();
  xmlstore::XmlStore::ReadSnapshot snap = store->BeginRead();
  run.doc_hash.resize(run.st.preload.size());
  for (size_t i = 0; i < run.st.preload.size(); ++i) {
    xml::SerializeOptions opts;
    opts.declaration = true;
    run.doc_hash[i] = perfbench::Fnv1a(
        xml::Serialize(Must(store->Reconstruct(run.inst->doc_ids[i]), "reconstruct"), opts));
  }
}

/// Warm-up (timed into setup_s): every distinct request target once,
/// in-process through the served instance's executor and caches (federated:
/// its router), which fills the result and plan caches. The result cache
/// keys on the whole query, xslt= included, so plain and XSLT variants are
/// warmed separately. The hit lists become the expected answers for the HTTP
/// responses; CheckFullScan verifies a sample of them.
void WarmUp(Run& run) {
  const Stream& st = run.st;
  Instance& inst = *run.inst;
  run.expected.assign(st.queries.size(), {});
  if (st.queries.empty()) return;
  std::vector<Op> targets;
  std::set<std::pair<uint32_t, bool>> seen;
  for (const Phase& p : st.phases) {
    for (const Op& op : p.ops) {
      if (op.kind != kDocGet && seen.insert({op.arg, op.xslt}).second) targets.push_back(op);
    }
  }
  query::QueryExecutor executor(inst.nm->store());
  executor.set_result_cache(inst.nm->service()->result_cache());
  executor.set_plan_cache(inst.nm->service()->plan_cache());
  std::vector<std::vector<uint64_t>> answers(targets.size());
  std::vector<double> bytes(targets.size(), 0);
  std::vector<uint8_t> kinds(targets.size(), run.spec.federated ? kFed : kXdb);
  const int64_t t0 = NowNs();
  perfbench::RunClosedLoop(4, targets.size(), INT64_MAX, kinds, [&](int, size_t i) {
    const std::string target = run.XdbTarget(targets[i]);
    auto q = query::ParseXdbQuery(std::string_view(target).substr(5));
    if (!q.ok()) return false;
    std::vector<uint64_t>& keys = answers[i];
    if (run.spec.federated) {
      auto fed = inst.nm->router()->QueryFederated("bank", *q);
      if (!fed.ok() || !fed->complete()) {
        run.fail.Add(true, "warm-up federated query failed: " + target);
        return false;
      }
      for (const auto& h : fed->hits) keys.push_back(HitKey(h.source, h.doc_id));
      std::sort(keys.begin(), keys.end());
    } else {
      auto hits = executor.Execute(*q);
      if (!hits.ok()) {
        run.fail.Add(true, "warm-up query failed: " + target);
        return false;
      }
      keys = KeysOf(*hits);
      for (const auto& h : *hits) bytes[i] += static_cast<double>(h.ApproxBytes());
    }
    return true;
  });
  run.warm_s = SecondsSince(t0);
  for (size_t i = 0; i < targets.size(); ++i) {
    run.hitlist_bytes += bytes[i];
    auto& e = run.expected[targets[i].arg];
    if (!e.empty() && e != answers[i]) {
      run.problems.push_back("xslt and plain answers differ for " + st.queries[targets[i].arg]);
    }
    if (e.empty()) e = answers[i];
  }
}

/// Checks the warm-up answers of a seeded sample of distinct queries — the
/// most frequent few plus a random draw from the rest — against the
/// full-scan executor (not timed into setup_s).
void CheckFullScan(Run& run, bool quick) {
  const Stream& st = run.st;
  Instance& inst = *run.inst;
  if (st.queries.empty()) return;
  const int64_t t0 = NowNs();
  std::vector<uint32_t> by_freq(st.queries.size());
  for (size_t i = 0; i < by_freq.size(); ++i) by_freq[i] = i;
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&](uint32_t a, uint32_t b) { return st.query_freq[a] > st.query_freq[b]; });
  const size_t top = quick ? 2 : 4, random = quick ? 2 : 8;
  std::vector<uint32_t> sample(by_freq.begin(), by_freq.begin() + std::min(top, by_freq.size()));
  perfbench::Rng rng(SubSeed(run.seed, 5));
  for (size_t i = 0; i < random && sample.size() < by_freq.size(); ++i) {
    uint32_t pick = by_freq[top + rng.Below(by_freq.size() - top)];
    if (std::find(sample.begin(), sample.end(), pick) == sample.end()) sample.push_back(pick);
  }
  query::ExecuteOptions scan_opts;
  scan_opts.use_text_index = false;
  for (uint32_t qid : sample) {
    query::XdbQuery q = Must(query::ParseXdbQuery(st.queries[qid]), "parse");
    std::vector<uint64_t> want;
    std::vector<uint64_t> got = run.expected[qid];
    if (!run.spec.federated) {
      query::QueryExecutor scan(inst.nm->store(), scan_opts);
      want = KeysOf(Must(scan.Execute(q), "full scan"));
    } else {
      // Store-backed sources only; the content-only source's answers are
      // router-augmented, so they are held to the warm-up answer instead.
      std::vector<std::pair<std::string, const xmlstore::XmlStore*>> stores;
      for (size_t s = 0; s < inst.fed_stores.size(); ++s) {
        stores.push_back({inst.fed_store_names[s], inst.fed_stores[s].get()});
      }
      stores.push_back({"remote", inst.remote->store()});
      for (const auto& [name, store] : stores) {
        query::QueryExecutor scan(store, scan_opts);
        for (uint64_t k : KeysOf(Must(scan.Execute(q), "full scan"), name)) want.push_back(k);
      }
      std::sort(want.begin(), want.end());
      const uint64_t lessons = KeySource(HitKey(inst.content_only_name, 0));
      got.erase(std::remove_if(got.begin(), got.end(),
                               [&](uint64_t k) { return KeySource(k) == lessons; }),
                got.end());
    }
    ++run.full_scan_checked;
    if (got != want) {
      run.problems.push_back("served answer differs from full scan for " + st.queries[qid] +
                             " (" + std::to_string(got.size()) + " vs " +
                             std::to_string(want.size()) + " hits)");
    }
  }
  run.reference_s = SecondsSince(t0);
}

/// The timed phases over HTTP, with the churn writer on its own connection
/// for the whole run.
void Measure(Run& run) {
  const Stream& st = run.st;
  const Spec& spec = run.spec;
  observability::MetricsRegistry* registry = run.inst->nm->metrics();
  run.before = Snapshot(registry);
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      run.mvcc_peak =
          std::max(run.mvcc_peak, Snapshot(registry).Gauge("netmark_mvcc_versions_retained"));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  HttpLanes lanes(&run, spec.lanes);
  HttpLanes writer_lane(&run, 1);
  const int64_t start = NowNs() + 20'000'000;  // 20 ms for threads to start
  std::thread writer_thread;
  if (!st.writes.ops.empty()) {
    writer_thread = std::thread([&] {
      run.writer.name = st.writes.name;
      run.writer.rate = st.writes.rate;
      const size_t n = std::min(st.writes.ops.size(),
                                static_cast<size_t>(st.writes.rate * run.seconds));
      run.writer.samples = perfbench::RunOpenLoop(1, n, st.writes.rate, start, st.writes.kinds,
                                                  writer_lane.Fn(st.writes));
    });
  }
  int64_t phase_start = start;
  for (size_t pi = 0; pi < st.phases.size(); ++pi) {
    const Phase& p = st.phases[pi];
    PhaseResult r;
    r.name = p.name;
    r.rate = p.rate;
    const bool stall = run.stall_ms > 0 && static_cast<int>(pi) == kReferencePhase;
    if (p.rate > 0) {
      r.samples = perfbench::RunOpenLoop(spec.lanes, p.ops.size(), p.rate, phase_start,
                                         p.kinds, lanes.Fn(p, stall));
    } else {
      if (NowNs() < phase_start) perfbench::SleepUntilNs(phase_start);
      // Fixed work, guarded at three times its planned duration.
      r.samples = perfbench::RunClosedLoop(
          spec.lanes, p.ops.size(),
          phase_start + static_cast<int64_t>(3 * p.seconds * 1e9), p.kinds, lanes.Fn(p));
    }
    phase_start = std::max(NowNs(), phase_start + static_cast<int64_t>(p.seconds * 1e9));
    run.results.push_back(std::move(r));
  }
  if (writer_thread.joinable()) writer_thread.join();
  sampling = false;
  sampler.join();
  run.after = Snapshot(registry);
}

/// The store holds exactly the preload plus the acknowledged PUTs, and a
/// seeded sample of acknowledged documents reads back byte-identical to an
/// independent conversion of the same input.
void CheckAfterRun(Run& run) {
  const Stream& st = run.st;
  Instance& inst = *run.inst;
  std::vector<size_t> acked;
  for (size_t i = 0; i < run.put_ids.size(); ++i) {
    if (run.put_ids[i] > 0) {
      acked.push_back(i);
      run.acked_bytes += st.puts[i].content.size();
    }
  }
  run.acked_puts = acked.size();
  uint64_t documents = 0;
  {
    xmlstore::XmlStore::ReadSnapshot snap = inst.nm->store()->BeginRead();
    documents = inst.nm->store()->document_count();
  }
  if (!run.spec.federated && documents != st.preload.size() + acked.size()) {
    run.problems.push_back("document_count " + std::to_string(documents) + " != preload " +
                           std::to_string(st.preload.size()) + " + acked PUTs " +
                           std::to_string(acked.size()));
  }
  if (acked.empty()) return;
  const convert::ConverterRegistry converters = convert::ConverterRegistry::Default();
  perfbench::Connection conn(inst.nm->server_port());
  perfbench::Rng rng(SubSeed(run.seed, 6));
  for (int k = 0; k < 20; ++k) {
    const size_t i = acked[rng.Below(acked.size())];
    xml::SerializeOptions opts;
    opts.declaration = true;
    const std::string want = xml::Serialize(
        Must(converters.Convert(st.puts[i].file_name, st.puts[i].content), "convert"), opts);
    perfbench::Response resp;
    std::string err;
    if (!conn.Send("GET", "/docs/" + std::to_string(run.put_ids[i]), "", &resp, &err) ||
        resp.status != 200 || resp.body != want) {
      run.problems.push_back("acked document " + std::to_string(run.put_ids[i]) +
                             " does not read back as ingested");
      return;
    }
  }
}

/// End-to-end figures of the untraced run.
struct Summary {
  int primary = kXdb;  ///< the workload's primary operation
  const PhaseResult* ref = nullptr;  ///< the phase its latency is taken from
  Quantiles latency;
  double max_ms = 0;
  double capacity = 0;
  Quantiles late;
  bool generator_ok = true;
  size_t attempted = 0;
  uint64_t store_bytes = 0;
  double input_bytes = 0;
  MetricMap e2e;
  std::string named = "{}";  ///< every named metric that applies, as JSON
};

Summary SummarizeRun(const Run& run, const Args& args) {
  const Spec& spec = run.spec;
  const Instance& inst = *run.inst;
  Summary sum;
  sum.primary = spec.name == "ingest" ? kPut : spec.federated ? kFed : kXdb;
  sum.ref = &run.results[spec.name == "ingest" ? 0 : kReferencePhase];
  sum.attempted = run.writer.samples.size();
  std::vector<double> late;
  for (const PhaseResult& r : run.results) {
    sum.attempted += r.samples.size();
    if (r.rate <= 0) continue;
    for (const Sample& s : r.samples) late.push_back(static_cast<double>(s.late_ns) / 1e6);
  }
  for (const Sample& s : run.writer.samples) late.push_back(static_cast<double>(s.late_ns) / 1e6);
  sum.late = Summarize(late);
  // The sender itself fell behind: its latencies would hide queueing.
  sum.generator_ok = sum.late.n == 0 || sum.late.tail <= 25.0;

  size_t ok = 0;
  int64_t first = INT64_MAX, last = 0;
  for (const Sample& s : run.results.back().samples) {
    if (s.kind != sum.primary) continue;
    ok += s.ok;
    first = std::min(first, s.due_ns);
    last = std::max(last, s.done_ns);
  }
  if (last > first) sum.capacity = static_cast<double>(ok) / (static_cast<double>(last - first) / 1e9);
  sum.latency = Summarize(LatenciesMs(sum.ref->samples, sum.primary));
  for (double v : LatenciesMs(sum.ref->samples, sum.primary, false)) sum.max_ms = std::max(sum.max_ms, v);
  if (spec.federated) {
    for (int s = 0; s < kFedLocalStores; ++s) {
      sum.store_bytes += DirBytes(inst.dir / ("s" + std::to_string(s)));
    }
    sum.store_bytes += DirBytes(inst.dir / "remote");
  } else {
    sum.store_bytes = DirBytes(inst.dir / "store");
  }
  sum.input_bytes = static_cast<double>(inst.input_bytes + run.acked_bytes);

  const double setup_s = Median(run.setup_times);
  const double rss = PeakRssMb();
  const double store_ratio = Ratio(static_cast<double>(sum.store_bytes), sum.input_bytes);
  sum.e2e["setup_s"] = {setup_s, "s"};
  sum.e2e["p50_ms"] = {sum.latency.p50, "ms"};
  sum.e2e["p99_ms"] = {sum.latency.tail, "ms"};
  sum.e2e["capacity_per_s"] = {sum.capacity, "1/s"};
  sum.e2e["peak_rss_mb"] = {rss, "MB"};
  sum.e2e["store_bytes_per_input_byte"] = {store_ratio, "ratio"};

  std::string named = "{";
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& extra = "") {
    if (named.size() > 1) named += ", ";
    named += JsonString(name) + ": {\"value\": " + Num(v) + ", \"unit\": " + JsonString(unit) +
             extra + "}";
    std::printf("  %-28s %14.4f %-16s%s\n", name.c_str(), v, unit.c_str(), extra.c_str());
  };
  auto add_latency = [&](const std::string& prefix, const std::vector<Sample>& samples, int kind) {
    Quantiles q = Summarize(LatenciesMs(samples, kind));
    if (q.n == 0) return;
    add(prefix + "_p50_ms", q.p50, "ms", ", \"samples\": " + std::to_string(q.n));
    add(prefix + "_p99_ms", q.tail, "ms",
        ", \"samples\": " + std::to_string(q.n) + ", \"percentile\": " + Num(q.tail_pct));
  };
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", spec.name.c_str(),
              args.seed, args.seconds, args.trace);
  add("setup_s", setup_s, "s", ", \"repetitions\": " + std::to_string(run.setup_times.size()));
  if (spec.name == "ingest") {
    add("ingest_docs_per_s", sum.capacity, "docs/s",
        ", \"acked\": " + std::to_string(run.acked_puts));
    add_latency("put", sum.ref->samples, kPut);
  } else {
    const std::string prefix = spec.federated ? "fed" : "xdb";
    add_latency(prefix, sum.ref->samples, sum.primary);
    double slo = 0;
    for (const PhaseResult& r : run.results) {
      if (r.rate > 0 && MeetsLimit(r, sum.primary, spec.limit_ms)) slo = std::max(slo, r.rate);
    }
    add(prefix + "_slo_rate_qps", slo, "req/s", ", \"limit_ms\": " + Num(spec.limit_ms));
    if (!spec.federated) add_latency("doc_get", sum.ref->samples, kDocGet);
    if (!run.writer.samples.empty()) add_latency("put", run.writer.samples, kPut);
  }
  add("error_rate", Ratio(static_cast<double>(run.fail.total()), static_cast<double>(sum.attempted)),
      "failed/attempted", ", \"attempted\": " + std::to_string(sum.attempted));
  add("peak_rss_mb", rss, "MB");
  add("store_bytes_per_input_byte", store_ratio, "ratio");
  sum.named = named + "}";
  return sum;
}

/// Traced in-process replay of the reference-rate stream (for `ingest`, of
/// the acknowledged PUTs, into a fresh store), and the per-layer metrics
/// from its spans and from the registry deltas of the untraced run.
MetricMap TraceLayers(Run& run, const Summary& sum, std::string* detail) {
  const Spec& spec = run.spec;
  const Stream& st = run.st;
  std::unique_ptr<Netmark> ingest_target;
  xmlstore::XmlStore* write_store = run.inst->nm->store();
  Phase replay = st.phases[spec.name == "ingest" ? 0 : kReferencePhase];
  if (spec.name == "ingest") {
    ingest_target = OpenInstance(run.work / "replay");
    write_store = ingest_target->store();
    replay.ops.resize(std::min(replay.ops.size(), run.acked_puts));
    replay.kinds.resize(replay.ops.size());
  }
  Replayer replayer(&run, write_store, spec.lanes + (st.writes.ops.empty() ? 0 : 1));
  replayer.log().Reserve(replay.ops.size() * 8 / spec.lanes + 64);
  std::atomic<size_t> replay_failed{0};
  auto counted = [&](perfbench::OpFn fn) {
    return [fn, &replay_failed](int lane, size_t i) {
      const bool ok = fn(lane, i);
      if (!ok) ++replay_failed;
      return ok;
    };
  };
  const int64_t start = NowNs() + 20'000'000;
  std::thread writer_thread;
  if (!st.writes.ops.empty()) {
    writer_thread = std::thread([&] {
      const size_t n = std::min(st.writes.ops.size(),
                                static_cast<size_t>(st.writes.rate * replay.seconds));
      perfbench::RunOpenLoop(1, n, st.writes.rate, start, st.writes.kinds,
                             counted(replayer.Fn(st.writes, spec.lanes, "replay_")));
    });
  }
  if (replay.rate > 0) {
    perfbench::RunOpenLoop(spec.lanes, replay.ops.size(), replay.rate, start, replay.kinds,
                           counted(replayer.Fn(replay, 0, "")));
  } else {
    perfbench::RunClosedLoop(spec.lanes, replay.ops.size(), INT64_MAX, replay.kinds,
                             counted(replayer.Fn(replay, 0, "")));
  }
  if (writer_thread.joinable()) writer_thread.join();
  if (replay_failed > 0) {
    run.fail.Add(true, std::to_string(replay_failed.load()) + " traced replay ops failed");
  }

  MetricMap layers;
  const auto self = replayer.log().SelfTimesUs();
  const auto dur = replayer.log().DurationsUs();
  auto span_layer = [&](const std::string& metric, const std::string& span, bool tail) {
    auto it = self.find(span);
    const Quantiles q = it == self.end() ? Quantiles{} : Summarize(it->second);
    layers[metric + "_p50"] = {q.p50, "us"};
    if (tail) layers[metric + "_p99"] = {q.tail, "us"};
  };
  span_layer("convert.upmark_us", "convert.upmark", true);
  span_layer("xmlstore.list_us", "xmlstore.list", false);
  span_layer("xmlstore.prepare_us", "xmlstore.prepare", false);
  span_layer("xmlstore.insert_us", "xmlstore.insert", true);
  span_layer("xmlstore.pin_us", "xmlstore.pin", true);
  span_layer("xmlstore.reconstruct_us", "xmlstore.reconstruct", false);
  span_layer("query.parse_us", "query.parse", false);
  span_layer("query.execute_us", "query.execute", true);
  span_layer("query.compose_us", "query.compose", true);
  span_layer("xslt.transform_us", "xslt.transform", false);
  span_layer("xml.serialize_us", "xml.serialize", false);
  span_layer("federation.fanout_us", "federation.fanout", false);
  span_layer("federation.compose_us", "federation.compose", false);

  const Registry& a = run.after;
  const Registry& b = run.before;
  auto delta = [&](const std::string& counter) { return a.Counter(counter) - b.Counter(counter); };
  const double docs = static_cast<double>(run.acked_puts);
  layers["storage.wal_bytes_per_doc"] = {Ratio(delta("netmark_wal_bytes_appended_total"), docs),
                                         "bytes/doc"};
  layers["storage.fsyncs_per_doc"] = {Ratio(delta("netmark_wal_fsyncs_total"), docs), "count/doc"};
  layers["storage.checkpoints"] = {delta("netmark_checkpoints_total"), "count"};
  const Registry::Hist checkpoint = a.HistogramDelta(b, "netmark_checkpoint_micros");
  layers["storage.checkpoint_ms"] = {Ratio(checkpoint.sum, checkpoint.count) / 1e3, "ms"};
  layers["storage.wal_commit_us_p50"] = {
      a.HistogramDelta(b, "netmark_wal_commit_micros").Quantile(0.5), "us"};
  layers["storage.mvcc_versions_retained_peak"] = {run.mvcc_peak, "count"};

  const double hits = delta("netmark_query_cache_hits_total");
  const double plan_hits = delta("netmark_query_plan_cache_hits_total");
  layers["query.cache_hit_ratio"] = {
      Ratio(hits, hits + delta("netmark_query_cache_misses_total")), "ratio"};
  layers["query.cache_evictions"] = {delta("netmark_query_cache_evictions_total"), "count"};
  layers["query.plan_cache_hit_ratio"] = {
      Ratio(plan_hits, plan_hits + delta("netmark_query_plan_cache_misses_total")), "ratio"};
  const auto totals = replayer.totals();
  layers["query.nodes_walked_per_query"] = {Ratio(totals.nodes_walked, totals.executed), "count"};
  layers["query.hits_per_section_built"] = {Ratio(totals.hits, totals.sections_built), "ratio"};

  const Registry::Hist source = a.HistogramDelta(b, "netmark_federation_source_micros");
  layers["federation.source_us_p50"] = {source.Quantile(0.5), "us"};
  layers["federation.source_us_p99"] = {source.Quantile(0.99), "us"};
  layers["federation.augment_share"] = {
      Ratio(delta("netmark_federation_augmented_total"),
            delta("netmark_federation_sources_queried_total")), "ratio"};

  // Server: untraced HTTP p50 minus traced in-process p50, per op type.
  std::string per_op = "{";
  for (int k = 0; k < kKinds; ++k) {
    const PhaseResult& http = k == kPut && !run.writer.samples.empty() ? run.writer : *sum.ref;
    const double http_us = Summarize(LatenciesMs(http.samples, k)).p50 * 1e3;
    const std::string root = std::string("request.") + kKindName[k];
    auto it = dur.find(root);
    const double inproc_us = it == dur.end() ? 0 : Summarize(it->second).p50;
    layers[std::string("server.overhead_us.") + kKindName[k]] = {
        it == dur.end() || http_us == 0 ? 0 : http_us - inproc_us, "us"};
    if (it == dur.end()) continue;
    // Share of the traced request time that the layer spans account for:
    // everything but the request root's own self time.
    double request_total = 0, unaccounted = 0;
    for (double v : it->second) request_total += v;
    for (double v : self.at(root)) unaccounted += v;
    if (per_op.size() > 1) per_op += ", ";
    per_op += JsonString(kKindName[k]) + ": {\"http_p50_us\": " + Num(http_us) +
              ", \"inprocess_p50_us\": " + Num(inproc_us) +
              ", \"traced_minus_untraced_us\": " + Num(inproc_us - http_us) +
              ", \"layer_coverage\": " + Num(Ratio(request_total - unaccounted, request_total)) +
              ", \"requests\": " + std::to_string(it->second.size()) + "}";
  }
  per_op += "}";
  const double requests = delta("netmark_http_server_requests_total");
  layers["server.keepalive_reuse_ratio"] = {
      Ratio(delta("netmark_http_keepalive_reuses_total"), requests), "ratio"};
  layers["server.shed"] = {delta("netmark_http_shed_total"), "count"};
  layers["server.epoll_wakeups_per_request"] = {
      Ratio(delta("netmark_http_server_epoll_wakeups_total"), requests), "ratio"};
  layers["gen.late_p99_ms"] = {sum.late.tail, "ms"};

  std::string self_json = "{";
  for (const auto& [name, v] : self) {
    double total = 0;
    for (double x : v) total += x;
    if (self_json.size() > 1) self_json += ", ";
    self_json += JsonString(name) + ": {\"spans\": " + std::to_string(v.size()) +
                 ", \"self_us_total\": " + Num(total) +
                 ", \"self_us_p50\": " + Num(Summarize(v).p50) + "}";
  }
  self_json += "}";
  const size_t spans = replayer.log().Write((run.out / "spans.jsonl").string());
  *detail = "{\"per_op\": " + per_op + ", \"self_time\": " + self_json +
            ", \"spans_written\": " + std::to_string(spans) + "}";
  std::printf("  traced replay: %zu spans -> %s\n", spans, (run.out / "spans.jsonl").c_str());
  for (const auto& [name, m] : layers) {
    std::printf("  %-38s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  return layers;
}

void WriteReport(const Run& run, const Args& args, uint64_t stream_hash, const Summary& sum,
                 const MetricMap& layers, const std::string& trace_detail, bool correct,
                 size_t failed) {
  const Stream& st = run.st;
  std::string phases = "[";
  for (const PhaseResult& r : run.results) {
    if (phases.size() > 1) phases += ", ";
    const Quantiles q = Summarize(LatenciesMs(r.samples, sum.primary));
    phases += "{\"name\": " + JsonString(r.name) + ", \"rate\": " + Num(r.rate) +
              ", \"requests\": " + std::to_string(r.samples.size()) +
              ", \"primary_p50_ms\": " + Num(q.p50) + ", \"primary_tail_ms\": " + Num(q.tail) +
              ", \"tail_percentile\": " + Num(q.tail_pct) + "}";
  }
  phases += "]";
  std::string setups = "[";
  for (double t : run.setup_times) setups += (setups.size() > 1 ? ", " : "") + Num(t);
  setups += "]";
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, stream_hash);
  std::ofstream report(run.out / "report.json");
  report << "{\"workload\": " << JsonString(run.spec.name) << ",\n"
         << " \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
         << ", \"git_sha\": " << JsonString(BuildGitSha())
         << ", \"version\": " << JsonString(BuildVersion()) << "},\n"
         << " \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
         << ", \"trace\": " << args.trace << ", \"quick\": " << (args.quick ? "true" : "false")
         << ", \"stream_hash\": \"" << hash << "\",\n"
         << " \"corpus\": {\"preload_docs\": " << st.preload.size()
         << ", \"put_docs_generated\": " << st.puts.size()
         << ", \"acked_puts\": " << run.acked_puts
         << ", \"federated_sources\": " << st.fed_corpora.size()
         << ", \"docs_per_federated_source\": " << run.spec.fed_store_docs
         << ", \"distinct_queries\": " << st.queries.size()
         << ", \"hitlist_working_set_mb\": " << Num(run.hitlist_bytes / 1048576.0)
         << ", \"input_bytes\": " << Num(sum.input_bytes)
         << ", \"store_bytes\": " << sum.store_bytes << "},\n"
         << " \"setup_s_each\": " << setups << ", \"warmup_s\": " << Num(run.warm_s)
         << ", \"reference_s\": " << Num(run.reference_s)
         << ", \"full_scan_checked_queries\": " << run.full_scan_checked << ",\n"
         << " \"generator\": {\"late_p99_ms\": " << Num(sum.late.tail)
         << ", \"valid\": " << (sum.generator_ok ? "true" : "false") << "},\n"
         << " \"primary\": {\"kind\": " << JsonString(kKindName[sum.primary])
         << ", \"samples\": " << sum.latency.n
         << ", \"tail_percentile\": " << Num(sum.latency.tail_pct)
         << ", \"max_ms\": " << Num(sum.max_ms) << "},\n"
         << " \"phases\": " << phases << ",\n"
         << " \"named\": " << sum.named << ",\n"
         << " \"end_to_end\": " << MetricsJson(sum.e2e) << ",\n"
         << " \"per_layer\": " << MetricsJson(layers) << ",\n"
         << " \"trace\": " << trace_detail << ",\n"
         << " \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << sum.attempted << ", \"failed\": " << failed << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ingest|xdb_read|xdb_churn|federated> "
                 "--seed N --seconds S --trace <0|1> [--work-dir D] [--out-dir D] "
                 "[--quick] [--stall-ms MS] [--stream-hash]\n");
    return 2;
  }
  Run run;
  run.spec = MakeSpec(args.workload, args.quick);
  if (run.spec.name.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  run.seed = args.seed;
  run.seconds = args.seconds;
  run.stall_ms = args.stall_ms;
  run.st = MakeStream(run.spec, args.seed, args.seconds, args.quick);
  const uint64_t stream_hash = StreamHash(run.st);
  if (args.stream_hash) {
    std::printf("%016" PRIx64 "\n", stream_hash);
    return 0;
  }
  if (run.spec.federated) run.target_suffix = "&databank=bank";
  run.work = fs::absolute(args.work_dir);
  run.out = fs::absolute(args.out_dir);
  fs::remove_all(run.work);
  fs::create_directories(run.work);
  fs::create_directories(run.out);

  SetUpTimed(run, args.trace ? 1 : run.spec.setups);
  RecordDocuments(run);
  run.put_ids.assign(run.st.puts.size(), 0);
  WarmUp(run);
  for (double& t : run.setup_times) t += run.warm_s;
  CheckFullScan(run, args.quick);
  Measure(run);
  CheckAfterRun(run);
  const Summary sum = SummarizeRun(run, args);
  MetricMap layers;
  std::string trace_detail = "{}";
  if (args.trace) layers = TraceLayers(run, sum, &trace_detail);

  const bool correct = run.problems.empty() && sum.generator_ok && run.fail.wrong() == 0;
  const size_t failed = run.fail.total();
  for (const auto& e : run.fail.examples()) std::fprintf(stderr, "perfbench: failure: %s\n", e.c_str());
  for (const auto& p : run.problems) std::fprintf(stderr, "perfbench: check: %s\n", p.c_str());
  if (!sum.generator_ok) {
    std::fprintf(stderr, "perfbench: run invalid: generator lateness p99 %.3f ms\n", sum.late.tail);
  }
  WriteReport(run, args, stream_hash, sum, layers, trace_detail, correct, failed);

  run.inst.reset();
  fs::remove_all(run.work);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", sum.attempted, failed,
              MetricsJson(args.trace ? layers : sum.e2e).c_str());
  return 0;
}
