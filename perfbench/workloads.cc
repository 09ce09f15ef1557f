#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine.h"
#include "exec/executor.h"
#include "measure.h"
#include "plan/planner.h"
#include "rdf/ntriples.h"
#include "results/writer.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/statistics.h"
#include "storage/triple_store.h"

namespace perfbench {

namespace engine = hsparql::engine;
namespace exec = hsparql::exec;
namespace plan = hsparql::plan;
namespace rdf = hsparql::rdf;
namespace server = hsparql::server;
namespace storage = hsparql::storage;
using hsparql::Status;

namespace {

/// Untimed traffic before the measured window (connections open,
/// allocator and page cache settle).
constexpr double kWarmupSeconds = 1.0;
/// Set-ups per run; setup_s is the fastest. Every set-up does the same
/// work, but the host's speed moves in steps lasting seconds, and a
/// run's set-ups often fall in one slow step. So half of them precede the
/// measured window (the last one serves it) and the rest follow it, and
/// the fastest is the one the host slowed least.
constexpr std::size_t kSetups = 15;
/// The window is cut into this many equal slices. qps, p50 and p90 are
/// computed per slice and reported at the median slice: another tenant
/// slowing a shared host for a few seconds moves only the slices it
/// covers. CPU per request covers the whole window, so work the program
/// does in a few slices only (a compaction) counts in full.
constexpr std::size_t kSlices = 20;
/// The planners each replayed text goes through in the traced run: HSP
/// (the one the server uses), CDP and left-deep (the paper's SQL).
constexpr plan::PlannerKind kPlanners[] = {
    plan::PlannerKind::kHsp, plan::PlannerKind::kCdp,
    plan::PlannerKind::kLeftDeep};
/// Write batches replayed on a standalone store in the traced run: enough
/// for one compaction of the SP2Bench store.
constexpr std::uint32_t kStorageBatches = 48;
/// write-mix writes one batch per fixed number of reads, so a faster
/// server stores more triples by the end of the window. Its
/// rss_peak_mb is read when client 0 has written this many batches
/// instead: about 100 batches in all, past the second compaction and
/// short of the third, so every run has stored the same data.
constexpr std::uint32_t kRssBatches = 50;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Set-up: N-Triples text in memory -> engine and server ready.

struct Served {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<server::SparqlServer> server;  // destroyed first
};

using Stack = std::array<Served, 2>;

struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

/// Builds every dataset of `in` the way `serve data.nt` does, with the
/// shipped defaults (plan cache 128, result cache off, request tracing
/// on). Returns the stack, or an error.
hsparql::Result<std::unique_ptr<Stack>> SetUp(const Inputs& in,
                                              SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  *times = {};
  const auto start = Clock::now();
  for (std::size_t d = 0; d < 2; ++d) {
    if (in.ntriples[d].empty()) continue;
    const auto t0 = Clock::now();
    rdf::Graph graph;
    auto loaded = rdf::ReadNTriplesString(in.ntriples[d], &graph);
    if (!loaded.ok()) return loaded.status();
    const auto t1 = Clock::now();
    storage::TripleStore store = storage::TripleStore::Build(std::move(graph));
    const auto t2 = Clock::now();
    Served& served = (*stack)[d];
    served.engine = std::make_unique<engine::Engine>(std::move(store),
                                                     engine::EngineOptions{});
    served.server = std::make_unique<server::SparqlServer>(
        served.engine.get(), server::ServerOptions{});
    Status started = served.server->Start();
    if (!started.ok()) return started;
    times->load_s += MillisBetween(t0, t1) / 1000.0;
    times->build_s += MillisBetween(t1, t2) / 1000.0;
  }
  times->total_s = MillisBetween(start, Clock::now()) / 1000.0;
  return stack;
}

// ---------------------------------------------------------------------------
// Closed-loop load.

/// One completed read; 24 bytes, as every request of the run keeps one.
struct Read {
  double done_ms = 0.0;     // completion, relative to the run origin
  float ms = 0.0F;          // round trip; +inf when the request failed
  std::uint32_t index = 0;  // op index in the client's sequence
  std::int32_t rows = -1;   // rows of the answer; -1 when it failed
  Template tmpl = Template::kArticle;
};

struct Write {
  double done_ms = 0.0;
  double ms = 0.0;
};

/// Per-client record of one run.
struct Loop {
  std::size_t next = 0;  // next op index; continues across phases
  std::vector<Read> reads;
  std::vector<Write> writes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  double rss_peak_mb = 0.0;  // write-mix client 0: see kRssBatches
};

/// One HTTP client: issues its op sequence until `until`, one request in
/// flight.
void RunClient(const Inputs& in, const Stack& stack, std::size_t c,
               Clock::time_point origin, Clock::time_point until,
               Loop* loop) {
  std::array<server::HttpClient, 2> http;
  for (std::size_t d = 0; d < 2; ++d) {
    if (!stack[d].server) continue;
    Status connected = http[d].Connect("127.0.0.1", stack[d].server->port());
    if (!connected.ok()) {
      loop->problems.push_back("connect: " + connected.ToString());
      return;
    }
  }
  const std::vector<Op>& ops = in.clients[c];
  while (Clock::now() < until) {
    if (loop->next >= ops.size() && in.workload == Workload::kWriteMix) {
      loop->problems.push_back("write-mix sequence exhausted");
      return;
    }
    const std::size_t index = loop->next++;
    const Op& op = ops[index % ops.size()];
    if (op.tmpl == Template::kWrite) {
      const auto batch = in.RenderBatch(op);
      const auto t0 = Clock::now();
      const Status status = stack[kSp2b].engine->AddTriples(batch);
      const auto t1 = Clock::now();
      ++loop->attempted;
      if (!status.ok()) {
        ++loop->failed;
        loop->problems.push_back("AddTriples: " + status.ToString());
      }
      loop->writes.push_back({MillisBetween(origin, t1), MillisBetween(t0, t1)});
      if (c == 0 && op.a + 1 == kRssBatches) loop->rss_peak_mb = PeakRssMb();
      continue;
    }
    const Dataset dataset = in.DatasetOf(op);
    const std::string target =
        "/sparql?query=" + server::HttpClient::UrlEncode(in.RenderQuery(op));
    const auto t0 = Clock::now();
    auto response = http[dataset].Get(target);
    const auto t1 = Clock::now();
    ++loop->attempted;
    long rows = -1;
    if (response.ok() && response->status == 200) {
      rows = CountJsonRows(response->body);
    }
    if (rows < 0) {
      ++loop->failed;
      if (loop->problems.size() < 8) {
        loop->problems.push_back(
            response.ok() ? "HTTP " + std::to_string(response->status)
                          : "transport: " + response.status().ToString());
      }
      if (!response.ok()) {
        (void)http[dataset].Connect("127.0.0.1",
                                    stack[dataset].server->port());
      }
    }
    loop->reads.push_back({MillisBetween(origin, t1),
                           static_cast<float>(rows < 0 ? kInf
                                                       : MillisBetween(t0, t1)),
                           static_cast<std::uint32_t>(index),
                           static_cast<std::int32_t>(rows), op.tmpl});
  }
}

// ---------------------------------------------------------------------------
// Correctness.

/// Every distinct text answered over HTTP: all its answers have one row
/// count, and it equals a direct in-process Engine::Query.
void CheckHttpAnswers(const Inputs& in, const Stack& stack,
                      const std::vector<Loop>& loops, RunResult* result,
                      std::size_t* distinct_texts) {
  struct Seen {
    Dataset dataset;
    long rows;
  };
  std::unordered_map<std::string, Seen> seen;
  for (std::size_t c = 0; c < loops.size(); ++c) {
    const std::vector<Op>& ops = in.clients[c];
    for (const Read& read : loops[c].reads) {
      if (read.rows < 0) continue;  // already counted as failed
      const Op& op = ops[read.index % ops.size()];
      auto [it, inserted] = seen.try_emplace(in.RenderQuery(op),
                                             Seen{in.DatasetOf(op), read.rows});
      if (!inserted && it->second.rows != read.rows) {
        ++result->failed;
        result->problems.push_back("row count changed for " + it->first);
      }
    }
  }
  *distinct_texts = seen.size();

  std::vector<const std::pair<const std::string, Seen>*> items;
  items.reserve(seen.size());
  for (const auto& item : seen) items.push_back(&item);
  constexpr std::size_t kCheckers = 3;
  std::vector<std::vector<std::string>> problems(kCheckers);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCheckers; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < items.size(); i += kCheckers) {
        const auto& [text, s] = *items[i];
        auto direct = stack[s.dataset].engine->Query(text);
        if (!direct.ok() || static_cast<long>(direct->rows()) != s.rows) {
          problems[t].push_back(
              "HTTP rows " + std::to_string(s.rows) + " != in-process " +
              (direct.ok() ? std::to_string(direct->rows())
                           : direct.status().ToString()) +
              " for " + text);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& list : problems) {
    result->failed += list.size();
    result->problems.insert(result->problems.end(), list.begin(), list.end());
  }
}

// ---------------------------------------------------------------------------
// Metrics of the measured window.

struct Window {
  double start_ms = 0.0;
  double end_ms = 0.0;

  bool Contains(double ms) const { return ms >= start_ms && ms < end_ms; }
};

/// qps, p50 and p90 at the median slice, CPU per request over the whole
/// window (see kSlices). p99 over the whole window goes on the details
/// line: on sub-millisecond reads it follows the host's preemptions.
void HttpMetrics(const std::vector<Loop>& loops, const Window& window,
                 double window_cpu_s, RunResult* result) {
  const double slice_ms = (window.end_ms - window.start_ms) / kSlices;
  std::array<std::vector<double>, kSlices> latencies;
  std::vector<double> all;
  for (const Loop& loop : loops) {
    for (const Read& read : loop.reads) {
      if (!window.Contains(read.done_ms)) continue;
      const auto k = std::min(
          kSlices - 1,
          static_cast<std::size_t>((read.done_ms - window.start_ms) / slice_ms));
      latencies[k].push_back(read.ms);
      all.push_back(read.ms);
    }
  }
  std::vector<double> qps, p50, p90;
  double completed = 0.0;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const auto ok = static_cast<double>(std::count_if(
        latencies[k].begin(), latencies[k].end(),
        [](double ms) { return ms != kInf; }));
    completed += ok;
    qps.push_back(ok / (slice_ms / 1000.0));
    p50.push_back(Percentile(latencies[k], 0.50));
    p90.push_back(Percentile(latencies[k], 0.90));
  }
  result->metrics.push_back({"qps", Median(qps), "1/s"});
  result->metrics.push_back({"p50_ms", Median(p50), "ms"});
  result->metrics.push_back({"p90_ms", Median(p90), "ms"});
  result->metrics.push_back({"cpu_ms_per_req",
                             window_cpu_s * 1000.0 / std::max(completed, 1.0),
                             "ms"});
  result->details.push_back({"p99_ms", Percentile(std::move(all), 0.99), "ms"});
}

/// Per-template (and, for analytic, per-query) p50, so a median falling
/// between modes shows, and for write-mix the write latencies.
void HttpDetails(const Inputs& in, const std::vector<Loop>& loops,
                 const Window& window, RunResult* result) {
  std::array<std::vector<double>, kNumTemplates> by_template;
  std::vector<std::vector<double>> by_query(in.paper_queries.size());
  std::vector<double> writes;
  for (std::size_t c = 0; c < loops.size(); ++c) {
    const std::vector<Op>& ops = in.clients[c];
    for (const Read& read : loops[c].reads) {
      if (!window.Contains(read.done_ms)) continue;
      by_template[static_cast<std::size_t>(read.tmpl)].push_back(read.ms);
      if (read.tmpl == Template::kPaperQuery) {
        by_query[ops[read.index % ops.size()].a].push_back(read.ms);
      }
    }
    for (const Write& write : loops[c].writes) {
      if (window.Contains(write.done_ms)) writes.push_back(write.ms);
    }
  }
  for (std::size_t t = 0; t < kNumTemplates; ++t) {
    if (by_template[t].empty()) continue;
    const std::string name(TemplateName(static_cast<Template>(t)));
    result->details.push_back(
        {"template." + name + ".p50_ms", Median(by_template[t]), "ms"});
    result->details.push_back({"template." + name + ".requests",
                               static_cast<double>(by_template[t].size()),
                               "count"});
  }
  for (std::size_t q = 0; q < by_query.size(); ++q) {
    if (by_query[q].empty()) continue;
    result->details.push_back({"query." + in.paper_queries[q].id + ".p50_ms",
                               Median(by_query[q]), "ms"});
  }
  if (!writes.empty()) {
    result->details.push_back(
        {"write_p50_ms", Percentile(writes, 0.50), "ms"});
    result->details.push_back(
        {"write_p90_ms", Percentile(writes, 0.90), "ms"});
    result->details.push_back(
        {"writes", static_cast<double>(writes.size()), "count"});
  }
}

// ---------------------------------------------------------------------------
// The traced run's per-layer replay.

struct LayerCounts {
  std::vector<double> body_kb;
  std::vector<double> hsp_merge_joins;
  std::vector<double> cdp_merge_joins;
  std::vector<double> intermediate_rows;
  std::vector<double> scanned_rows;
  std::vector<double> rows_out;
  std::vector<double> result_rows;
  /// Wall time of the replay passes without [0] and with [1] spans.
  std::array<double, 2> replay_ms{0.0, 0.0};
};

struct ReplayItem {
  Dataset dataset;
  std::string text;
};

/// Replays `items` through each layer's public entry point, one span per
/// call, until `until` (at least one item). A replayed call's parent is
/// the call that does the same work on the served path: engine.query
/// under server.roundtrip, parse/plan/execute under engine.query
/// (parse and plan only when the served call missed the plan cache),
/// results.serialize under server.roundtrip. Each item is replayed twice,
/// once without spans, so the spans' own cost can be reported.
void ReplayLayers(const std::vector<ReplayItem>& items, const Stack& stack,
                  Clock::time_point until, SpanLog* log,
                  LayerCounts* counts) {
  struct Planners {
    std::unique_ptr<storage::Statistics> stats;
    std::array<std::unique_ptr<plan::Planner>, 3> planner;
  };
  std::array<Planners, 2> planners;
  for (std::size_t d = 0; d < 2; ++d) {
    if (!stack[d].engine) continue;
    engine::StoreView view = stack[d].engine->read_view();
    planners[d].stats = std::make_unique<storage::Statistics>(
        storage::Statistics::Compute(view.store()));
    for (std::size_t k = 0; k < 3; ++k) {
      auto made = plan::MakePlanner(kPlanners[k], &view.store(),
                                    planners[d].stats.get());
      if (made.ok()) planners[d].planner[k] = std::move(*made);
    }
  }
  std::array<server::HttpClient, 2> http;
  for (std::size_t d = 0; d < 2; ++d) {
    if (stack[d].server) {
      (void)http[d].Connect("127.0.0.1", stack[d].server->port());
    }
  }
  static constexpr const char* kPlanSpan[] = {"hsp.plan", "cdp.plan",
                                              "cdp.sql_plan"};
  static constexpr const char* kExecSpan[] = {
      "exec.execute", "exec.cdp_execute", "exec.sql_execute"};

  // One item. Returns whether Engine::Query hit the plan cache; returns
  // early when a layer fails (the served path and the correctness checks
  // report failures; the replay only times).
  const auto replay = [&](std::size_t i, long request) {
    const ReplayItem& item = items[i];
    const Served& served = stack[item.dataset];

    const long query = log->Begin("engine.query", request, i);
    auto response = served.engine->Query(item.text);
    log->End(query);
    const bool hit = response.ok() && response->plan_cache_hit;
    // The served request below must find the plan cache as this call
    // found it.
    if (!hit) served.engine->ClearCaches();

    const long roundtrip = log->Begin("server.roundtrip", request, i);
    auto reply = http[item.dataset].Get(
        "/sparql?query=" + server::HttpClient::UrlEncode(item.text));
    log->End(roundtrip);
    log->SetParent(query, roundtrip);
    if (reply.ok()) {
      counts->body_kb.push_back(static_cast<double>(reply->body.size()) /
                                1024.0);
    }

    const long parse = log->Begin("sparql.parse", hit ? request : query, i);
    auto analyzed = plan::AnalyzedQuery::FromText(item.text);
    log->End(parse);
    if (!analyzed.ok()) return hit;

    std::array<std::optional<plan::PlannedQuery>, 3> planned;
    for (std::size_t k = 0; k < 3; ++k) {
      const plan::Planner* planner = planners[item.dataset].planner[k].get();
      if (planner == nullptr) continue;
      const long span = log->Begin(kPlanSpan[k],
                                   k == 0 && !hit ? query : request, i);
      auto made = planner->Plan(*analyzed);
      log->End(span);
      if (made.ok()) planned[k] = std::move(*made);
    }
    if (planned[0]) {
      counts->hsp_merge_joins.push_back(
          planned[0]->plan.CountJoins(hsparql::hsp::JoinAlgo::kMerge));
    }
    if (planned[1]) {
      counts->cdp_merge_joins.push_back(
          planned[1]->plan.CountJoins(hsparql::hsp::JoinAlgo::kMerge));
    }

    engine::StoreView view = served.engine->read_view();
    const exec::Executor executor(&view.store());
    std::optional<exec::ExecResult> hsp_result;
    for (std::size_t k = 0; k < 3; ++k) {
      if (!planned[k]) continue;
      const long span = log->Begin(kExecSpan[k], k == 0 ? query : request, i);
      auto ran = executor.Execute(planned[k]->query, planned[k]->plan);
      log->End(span);
      if (k == 0 && ran.ok()) hsp_result = std::move(*ran);
    }
    if (!hsp_result) return hit;
    counts->intermediate_rows.push_back(
        static_cast<double>(hsp_result->total_intermediate_rows));
    counts->scanned_rows.push_back(
        static_cast<double>(hsp_result->total_scanned_rows));
    counts->rows_out.push_back(static_cast<double>(hsp_result->table.rows));

    const long serialize = log->Begin("results.serialize", roundtrip, i);
    const std::string body =
        hsparql::results::WriteString(hsparql::results::Format::kJson,
                                      hsp_result->table, planned[0]->query,
                                      view.dictionary());
    log->End(serialize);
    if (!body.empty()) {
      counts->result_rows.push_back(
          static_cast<double>(hsp_result->table.rows));
    }
    return hit;
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0 && Clock::now() >= until) break;
    // Untraced pass first on even items, traced first on odd ones, so
    // neither side always finds the warmer caches.
    for (std::size_t pass = 0; pass < 2; ++pass) {
      const std::size_t traced = (pass + i) % 2;
      log->set_enabled(traced == 1);
      const auto t0 = Clock::now();
      const long request = log->Begin("request", -1, i);
      const bool hit = replay(i, request);
      log->End(request);
      counts->replay_ms[traced] += MillisBetween(t0, Clock::now());
      // The second pass must find the plan cache as the first found it.
      if (!hit) stack[items[i].dataset].engine->ClearCaches();
    }
  }
  log->set_enabled(true);
}

struct StorageReplay {
  std::vector<double> prepare_ms, stats_ms, apply_ms;
  std::size_t compactions = 0;
  std::size_t delta_peak = 0;
};

/// The write-mix batches of client 0 through the store's two-phase
/// update, on a store of its own.
StorageReplay ReplayStorage(const Inputs& in, SpanLog* log) {
  StorageReplay out;
  rdf::Graph graph;
  if (!rdf::ReadNTriplesString(in.ntriples[kSp2b], &graph).ok()) return out;
  storage::TripleStore store = storage::TripleStore::Build(std::move(graph));
  for (std::uint32_t b = 0; b < kStorageBatches; ++b) {
    Op op;
    op.tmpl = Template::kWrite;
    op.a = b;
    const auto batch = in.RenderBatch(op);
    const long write = log->Begin("storage.write", -1, b);
    const long prepare = log->Begin("storage.prepare_add", write, b);
    auto update = store.PrepareAdd(batch);
    log->End(prepare);
    const long stats = log->Begin("storage.stats", write, b);
    const storage::Statistics preview =
        storage::Statistics::Compute(store, update);
    log->End(stats);
    if (update.compacted) ++out.compactions;
    const long apply = log->Begin("storage.apply", write, b);
    store.Apply(std::move(update));
    log->End(apply);
    log->End(write);
    out.delta_peak = std::max(out.delta_peak, store.delta_size());
  }
  out.prepare_ms = log->Millis("storage.prepare_add");
  out.stats_ms = log->Millis("storage.stats");
  out.apply_ms = log->Millis("storage.apply");
  return out;
}

/// Every read text of client 0 up to how far it got, distinct, in order.
std::vector<ReplayItem> ReplayItems(const Inputs& in, std::size_t progress) {
  std::vector<ReplayItem> items;
  std::unordered_set<std::string> seen;
  const std::vector<Op>& ops = in.clients[0];
  for (std::size_t i = 0; i < std::min(progress, ops.size()); ++i) {
    if (ops[i].tmpl == Template::kWrite) continue;
    std::string text = in.RenderQuery(ops[i]);
    if (seen.insert(text).second) {
      items.push_back({in.DatasetOf(ops[i]), std::move(text)});
    }
  }
  return items;
}

double RecorderPhaseMedian(const Stack& stack, std::string_view phase) {
  std::vector<double> samples;
  for (const Served& served : stack) {
    if (!served.server) continue;
    hsparql::obs::FlightRecorder::Filter all;
    all.limit = 0;
    for (const auto& trace : served.server->recorder().Snapshot(all)) {
      if (trace->http_status != 200) continue;
      for (const auto& span : trace->spans) {
        if (span.name == phase) samples.push_back(span.millis);
      }
    }
  }
  return Median(samples);
}

// ---------------------------------------------------------------------------

std::uint64_t PlanCacheHits(const Stack& stack, std::uint64_t* lookups) {
  std::uint64_t hits = 0;
  *lookups = 0;
  for (const Served& served : stack) {
    if (!served.engine) continue;
    const auto counters = served.engine->stats().plan_cache;
    hits += counters.hits;
    *lookups += counters.hits + counters.misses;
  }
  return hits;
}

void AddEnv(const Inputs& in, RunResult* result) {
  const engine::EngineOptions engine_options;
  const server::ServerOptions server_options;
  auto& env = result->env;
  env.emplace_back("workload", std::string(WorkloadName(in.workload)));
  env.emplace_back("seed", std::to_string(in.seed));
  env.emplace_back("sp2b_triples", std::to_string(in.triples[kSp2b]));
  env.emplace_back("yago_triples", std::to_string(in.triples[kYago]));
  env.emplace_back("plan_cache_capacity",
                   std::to_string(engine_options.plan_cache_capacity));
  env.emplace_back("result_cache_capacity",
                   std::to_string(engine_options.result_cache_capacity));
  env.emplace_back("clients", std::to_string(in.clients.size()));
  env.emplace_back("planner", "hsp");
  env.emplace_back("request_tracing",
                   server_options.request_tracing ? "on" : "off");
  env.emplace_back("admission_max_concurrent",
                   std::to_string(server_options.admission.max_concurrent));
  env.emplace_back("admission_queue_capacity",
                   std::to_string(server_options.admission.queue_capacity));
  env.emplace_back("default_timeout_ms",
                   std::to_string(server_options.default_timeout_ms));
  env.emplace_back("worker_threads",
                   std::to_string(hsparql::ThreadPool::Shared().num_workers()));
  env.emplace_back("setups", std::to_string(kSetups));
  if (in.workload == Workload::kWriteMix) {
    env.emplace_back("reads_per_write", std::to_string(in.reads_per_write));
    env.emplace_back("articles_per_batch",
                     std::to_string(in.articles_per_batch));
  }
}

std::size_t OpsPerClient(double seconds) {
  // Comfortably above what a client completes in the run (lookup runs
  // ~10k requests per second per client, write-mix ~8k), so a faster
  // server does not run out of write-mix sequence.
  const double rate = 24000.0;
  return static_cast<std::size_t>(rate * (seconds + kWarmupSeconds + 2.0));
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const Workload workload = config.workload;

  // Inputs, generated twice: the determinism self-check.
  const std::size_t ops = OpsPerClient(config.seconds);
  Inputs in = MakeInputs(workload, config.seed, ops);
  {
    const Inputs again = MakeInputs(workload, config.seed, ops);
    if (again.Digest() != in.Digest()) {
      result.problems.push_back("same seed produced different inputs");
    }
  }
  AddEnv(in, &result);
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(in.Digest()));
  result.env.emplace_back("input_digest", digest);

  // Set-up, repeated until `count` set-ups are timed; the last stack is
  // kept (see kSetups).
  const auto origin = Clock::now();
  SpanLog log(origin);
  std::vector<double> setup_s, load_s, build_s;
  std::unique_ptr<Stack> stack;
  const auto set_up_to = [&](std::size_t count) {
    while (setup_s.size() < count) {
      stack.reset();
      SetupTimes times;
      const long span = log.Begin("setup", -1, setup_s.size());
      auto made = SetUp(in, &times);
      log.End(span);
      if (!made.ok()) {
        result.problems.push_back("set-up: " + made.status().ToString());
        return false;
      }
      stack = std::move(*made);
      setup_s.push_back(times.total_s);
      load_s.push_back(times.load_s);
      build_s.push_back(times.build_s);
    }
    return true;
  };
  if (!set_up_to(kSetups / 2 + 1)) return result;

  // The measured window. Reserved read records take memory only as
  // requests fill them, and never a reallocation's second copy.
  std::vector<Loop> loops(kClients);
  for (Loop& loop : loops) loop.reads.reserve(ops);
  std::uint64_t lookups_before = 0;
  const std::uint64_t hits_before = PlanCacheHits(*stack, &lookups_before);
  const auto run_start = Clock::now();
  const double window_seconds =
      config.trace ? config.seconds * 0.4 : config.seconds;
  const auto measure_start =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kWarmupSeconds));
  const auto until =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(window_seconds));
  const Window window{MillisBetween(origin, measure_start),
                      MillisBetween(origin, until)};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, std::cref(in), std::cref(*stack), c,
                         origin, until, &loops[c]);
  }
  std::this_thread::sleep_until(measure_start);
  const double cpu_start_s = ProcessCpuSeconds();
  std::this_thread::sleep_until(until);
  const double window_cpu_s = ProcessCpuSeconds() - cpu_start_s;
  for (std::thread& t : clients) t.join();
  // Before the correctness check and the later set-ups allocate.
  const double rss_peak_mb = loops[0].rss_peak_mb > 0.0
                                 ? loops[0].rss_peak_mb
                                 : PeakRssMb();
  if (!config.trace) HttpMetrics(loops, window, window_cpu_s, &result);
  HttpDetails(in, loops, window, &result);
  std::uint64_t lookups_after = 0;
  const std::uint64_t hits_after = PlanCacheHits(*stack, &lookups_after);

  for (const Loop& loop : loops) {
    result.attempted += loop.attempted;
    result.failed += loop.failed;
    result.problems.insert(result.problems.end(), loop.problems.begin(),
                           loop.problems.end());
  }
  std::size_t distinct = 0;
  CheckHttpAnswers(in, *stack, loops, &result, &distinct);
  result.env.emplace_back("distinct_texts", std::to_string(distinct));

  if (!config.trace) {
    if (!set_up_to(kSetups)) return result;
    stack.reset();
    result.metrics.insert(
        result.metrics.begin(),
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"});
    result.metrics.push_back({"rss_peak_mb", rss_peak_mb, "MB"});
    return result;
  }

  // --- Traced run: per-layer figures. ---
  const double queue_ms = RecorderPhaseMedian(*stack, "queue");
  const double flush_ms = RecorderPhaseMedian(*stack, "flush");
  LayerCounts counts;
  const auto replay_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds * 0.35));
  ReplayLayers(ReplayItems(in, loops[0].next), *stack, replay_until, &log,
               &counts);
  if (!set_up_to(kSetups)) return result;
  stack.reset();
  const StorageReplay storage_replay = ReplayStorage(in, &log);

  auto& m = result.metrics;
  const auto median_of = [&](std::string_view name, double scale) {
    return Median(log.Millis(name)) * scale;
  };
  m.push_back({"server.roundtrip_ms", median_of("server.roundtrip", 1), "ms"});
  m.push_back({"server.self_ms",
               Median(log.SelfMillisOf("server.roundtrip")), "ms"});
  m.push_back({"server.queue_ms", queue_ms, "ms"});
  m.push_back({"server.flush_ms", flush_ms, "ms"});
  m.push_back({"server.body_kb", Mean(counts.body_kb), "KiB"});
  m.push_back({"engine.query_ms", median_of("engine.query", 1), "ms"});
  m.push_back({"engine.self_us",
               Median(log.SelfMillisOf("engine.query")) * 1000.0, "us"});
  const std::uint64_t lookups = lookups_after - lookups_before;
  m.push_back({"engine.plan_cache_hit_ratio",
               lookups == 0 ? 0.0
                            : static_cast<double>(hits_after - hits_before) /
                                  static_cast<double>(lookups),
               "ratio"});
  m.push_back({"sparql.parse_us", median_of("sparql.parse", 1000), "us"});
  m.push_back({"hsp.plan_us", median_of("hsp.plan", 1000), "us"});
  m.push_back({"hsp.merge_joins", Mean(counts.hsp_merge_joins), "count"});
  m.push_back({"cdp.plan_ms", median_of("cdp.plan", 1), "ms"});
  m.push_back({"cdp.sql_plan_us", median_of("cdp.sql_plan", 1000), "us"});
  m.push_back({"cdp.merge_joins", Mean(counts.cdp_merge_joins), "count"});
  m.push_back({"exec.exec_ms", median_of("exec.execute", 1), "ms"});
  m.push_back({"exec.cdp_exec_ms", median_of("exec.cdp_execute", 1), "ms"});
  m.push_back({"exec.sql_exec_ms", median_of("exec.sql_execute", 1), "ms"});
  m.push_back(
      {"exec.intermediate_rows", Mean(counts.intermediate_rows), "count"});
  m.push_back({"exec.scanned_rows", Mean(counts.scanned_rows), "count"});
  m.push_back({"exec.rows_out", Mean(counts.rows_out), "count"});
  m.push_back({"results.serialize_ms", median_of("results.serialize", 1),
               "ms"});
  m.push_back({"results.rows", Mean(counts.result_rows), "count"});
  m.push_back({"storage.build_s", Median(build_s), "s"});
  m.push_back(
      {"storage.prepare_add_ms", Median(storage_replay.prepare_ms), "ms"});
  m.push_back({"storage.stats_ms", Median(storage_replay.stats_ms), "ms"});
  m.push_back({"storage.apply_ms", Median(storage_replay.apply_ms), "ms"});
  m.push_back({"storage.compactions",
               static_cast<double>(storage_replay.compactions), "count"});
  m.push_back({"storage.delta_triples_peak",
               static_cast<double>(storage_replay.delta_peak), "count"});
  m.push_back({"rdf.load_s", Median(load_s), "s"});
  m.push_back({"bench.trace_overhead_pct",
               (counts.replay_ms[1] / std::max(counts.replay_ms[0], 1e-9) -
                1.0) * 100.0,
               "%"});
  result.details.push_back({"replayed_requests",
                            static_cast<double>(log.Millis("request").size()),
                            "count"});

  if (!config.spans_path.empty() && !log.WriteJsonLines(config.spans_path)) {
    result.problems.push_back("could not write " + config.spans_path);
  }
  return result;
}

}  // namespace perfbench
