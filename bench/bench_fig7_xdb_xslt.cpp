// Fig 7 — the XDB Query search-and-transformation process: URL query ->
// context/content search -> result composition -> XSLT rendering, end to
// end, with a per-stage latency breakdown and an over-HTTP variant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "query/compose.h"
#include "query/executor.h"
#include "server/http_client.h"
#include "xml/serializer.h"
#include "xslt/stylesheet.h"

namespace {

using namespace netmark;

constexpr const char* kReportSheet =
    "<xsl:stylesheet>"
    "<xsl:template match=\"/\">"
    "<report count=\"{results/@count}\">"
    "<xsl:for-each select=\"results/result\"><xsl:sort select=\"@doc\"/>"
    "<section doc=\"{@doc}\"><h><xsl:value-of select=\"context\"/></h>"
    "<body><xsl:value-of select=\"content\"/></body></section>"
    "</xsl:for-each></report>"
    "</xsl:template>"
    "</xsl:stylesheet>";

void BM_XdbParse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = query::ParseXdbQuery("context=Budget+Summary&content=FY2005&limit=50");
    bench::Check(q.status(), "parse");
    benchmark::DoNotOptimize(q->context.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XdbParse);

void BM_EndToEndPipeline(benchmark::State& state) {
  auto inst = bench::MakeLoadedInstance(static_cast<size_t>(state.range(0)));
  auto sheet = bench::Unwrap(xslt::Stylesheet::Parse(kReportSheet), "sheet");
  query::QueryExecutor executor(inst.nm->store());
  for (auto _ : state) {
    auto q = bench::Unwrap(query::ParseXdbQuery("context=Budget"), "parse");
    auto hits = bench::Unwrap(executor.Execute(q), "execute");
    auto results = bench::Unwrap(query::ComposeResults(*inst.nm->store(), q, hits),
                                 "compose");
    auto transformed = bench::Unwrap(xslt::Transform(sheet, results), "transform");
    std::string rendered = xml::Serialize(transformed);
    benchmark::DoNotOptimize(rendered.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["corpus_docs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EndToEndPipeline)->Arg(120)->Arg(480)->Unit(benchmark::kMicrosecond);

void BM_EndToEndOverHttp(benchmark::State& state) {
  auto inst = bench::MakeLoadedInstance(static_cast<size_t>(state.range(0)));
  bench::Check(inst.nm->RegisterStylesheet("report", kReportSheet), "stylesheet");
  bench::Check(inst.nm->StartServer(), "server");
  server::HttpClient client("127.0.0.1", inst.nm->server_port());
  for (auto _ : state) {
    auto resp = client.Get("/xdb?context=Budget&xslt=report");
    bench::Check(resp.status(), "http");
    if (resp->status != 200) {
      std::fprintf(stderr, "unexpected HTTP %d\n", resp->status);
      std::exit(1);
    }
    benchmark::DoNotOptimize(resp->body.size());
  }
  state.SetItemsProcessed(state.iterations());
  inst.nm->StopServer();
}
BENCHMARK(BM_EndToEndOverHttp)->Arg(120)->Unit(benchmark::kMicrosecond);

void PrintBreakdownTable() {
  bench::ReportHeader("Fig 7: XDB Query search & transformation process",
                      "query parse -> search -> compose -> XSLT is an "
                      "interactive, on-the-fly pipeline");
  const size_t kDocs = 480;
  auto inst = bench::MakeLoadedInstance(kDocs);
  auto sheet = bench::Unwrap(xslt::Stylesheet::Parse(kReportSheet), "sheet");
  query::QueryExecutor executor(inst.nm->store());
  const int kReps = 25;
  double parse_ms = 0, search_ms = 0, compose_ms = 0, transform_ms = 0;
  size_t hits_count = 0;
  for (int i = 0; i < kReps; ++i) {
    Stopwatch w;
    auto q = bench::Unwrap(query::ParseXdbQuery("context=Budget"), "parse");
    parse_ms += w.ElapsedSeconds() * 1000;
    w.Restart();
    auto hits = bench::Unwrap(executor.Execute(q), "execute");
    search_ms += w.ElapsedSeconds() * 1000;
    hits_count = hits.size();
    w.Restart();
    auto results =
        bench::Unwrap(query::ComposeResults(*inst.nm->store(), q, hits), "compose");
    compose_ms += w.ElapsedSeconds() * 1000;
    w.Restart();
    auto transformed = bench::Unwrap(xslt::Transform(sheet, results), "transform");
    transform_ms += w.ElapsedSeconds() * 1000;
    benchmark::DoNotOptimize(xml::Serialize(transformed).size());
  }
  std::printf("corpus: %zu docs; query context=Budget; hits per query: %zu\n",
              kDocs, hits_count);
  std::printf("%14s %12s\n", "stage", "avg (ms)");
  std::printf("%14s %12.3f\n", "URL parse", parse_ms / kReps);
  std::printf("%14s %12.3f\n", "search", search_ms / kReps);
  std::printf("%14s %12.3f\n", "compose", compose_ms / kReps);
  std::printf("%14s %12.3f\n", "XSLT", transform_ms / kReps);
  const std::pair<const char*, double> stages[] = {
      {"URL parse", parse_ms}, {"search", search_ms}, {"compose", compose_ms},
      {"XSLT", transform_ms}};
  const auto* largest = std::max_element(
      std::begin(stages), std::end(stages),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const double total_ms = parse_ms + search_ms + compose_ms + transform_ms;
  std::printf("shape check (measured): %s dominates (%.0f%% of the pipeline); "
              "parse is %.1f%%; whole pipeline %.3f ms per query\n",
              largest->first, total_ms > 0 ? 100.0 * largest->second / total_ms : 0.0,
              total_ms > 0 ? 100.0 * parse_ms / total_ms : 0.0, total_ms / kReps);
}

}  // namespace

int main(int argc, char** argv) {
  PrintBreakdownTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
