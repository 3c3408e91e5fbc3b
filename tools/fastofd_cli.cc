// fastofd — command-line front end to the library.
//
//   fastofd discover --data t.csv --ontology o.txt [--kappa 0.9] [--inh]
//                    [--max-level L] [--out sigma.txt]
//       Discover the complete minimal set of OFDs; write Σ to --out.
//
//   fastofd verify --data t.csv --ontology o.txt --sigma sigma.txt
//       Check each OFD in Σ; print satisfied/violated and support.
//
//   fastofd clean --data t.csv --ontology o.txt --sigma sigma.txt
//                 [--beam B] [--tau T] [--out repaired.csv]
//                 [--ontology-out repaired_ontology.txt]
//       Run OFDClean; print the Pareto frontier and write the chosen repair.
//
//   fastofd gen --rows N [--senses K] [--err RATE] [--inc RATE]
//               [--out data.csv] [--ontology-out o.txt] [--sigma-out s.txt]
//       Generate a synthetic instance (data + ontology + Σ + ground truth).
//
//   fastofd serve (--socket PATH | --port N) [--queue-depth D]
//                 [--max-parked P] [--deadline-ms MS] [--snapshot-dir DIR]
//       Run the resident cleaning service (NDJSON over a UNIX-domain or
//       loopback TCP socket; see docs/protocol.md). Drains gracefully on
//       SIGTERM/SIGINT: in-flight requests finish, new ones get 503.
//
//   fastofd client (--socket PATH | --port N) <op> [op flags]
//                  | --json '{"op": ...}'
//       Send one request and print the response line. Op fields come from
//       flags: --session, --data/--ontology/--sigma (load), --row/--attr
//       /--value (update), --out (clean). Exit 0 on ok, 1 otherwise.
//
// Flags common to all subcommands:
//   --threads N        worker threads for the shared execution pool
//                      (default 1; 0 = all hardware threads). Output is
//                      identical for any thread count. `serve` runs every
//                      request on this pool and gives it N + 1 workers
//                      (at least 2).
//                      `gen` accepts the flag for symmetry but generation
//                      itself is serial.
//   --metrics[=json]   after the run, dump the metrics registry (counters,
//                      gauges, timers — including partition-cache
//                      hit/miss/eviction counts and per-level timers) to
//                      stderr as aligned text, or as JSON with `=json`.
//   --cache-mb M       memory budget for the shared stripped-partition
//                      cache in MiB (default 256; 0 = unbounded). Least
//                      recently used partitions are evicted beyond it.

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "clean/repair.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/thread_pool.h"
#include "ofd/sigma_io.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace fastofd {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fastofd <discover|verify|clean|gen|serve|client> "
               "[flags]\n"
               "common flags: --threads N, --metrics[=json], --cache-mb M\n"
               "see the header of tools/fastofd_cli.cc for details\n");
  return 2;
}

// Shared execution & instrumentation context, built from the common flags.
struct ExecContext {
  explicit ExecContext(const Flags& flags)
      : pool(ResolveThreads(flags)),
        cache_budget(ResolveCacheBudget(flags)),
        metrics_mode(flags.GetString("metrics", "")) {}

  static int ResolveThreads(const Flags& flags) {
    int threads = static_cast<int>(flags.GetInt("threads", 1));
    return threads <= 0 ? ThreadPool::DefaultThreads() : threads;
  }

  static int64_t ResolveCacheBudget(const Flags& flags) {
    int64_t mb = flags.GetInt("cache-mb", 256);
    return mb <= 0 ? PartitionCache::kUnbounded : mb * (int64_t{1} << 20);
  }

  /// Dumps the registry to stderr if --metrics was given. Scheduler gauges
  /// (exec.worker<NN>.executed/.stolen) are refreshed first, so a scaling
  /// regression is diagnosable straight from --metrics=json output.
  void Report() {
    if (metrics_mode.empty()) return;
    pool.PublishMetrics(&metrics);
    std::string dump =
        metrics_mode == "json" ? metrics.ToJson() + "\n" : metrics.ToText();
    std::fputs(dump.c_str(), stderr);
  }

  MetricsRegistry metrics;
  ThreadPool pool;
  int64_t cache_budget;
  std::string metrics_mode;
};

// Loads --data and --ontology; returns false (after printing) on failure.
bool LoadInputs(const Flags& flags, Relation* rel, Ontology* ontology) {
  std::string data_path = flags.GetString("data", "");
  std::string ont_path = flags.GetString("ontology", "");
  if (data_path.empty() || ont_path.empty()) {
    std::fprintf(stderr, "error: --data and --ontology are required\n");
    return false;
  }
  auto csv = ReadCsvFile(data_path);
  if (!csv.ok()) {
    std::fprintf(stderr, "error: %s\n", csv.status().message().c_str());
    return false;
  }
  auto rel_result = Relation::FromCsv(csv.value());
  if (!rel_result.ok()) {
    std::fprintf(stderr, "error: %s\n", rel_result.status().message().c_str());
    return false;
  }
  *rel = std::move(rel_result).value();
  auto ont = ReadOntologyFile(ont_path);
  if (!ont.ok()) {
    std::fprintf(stderr, "error: %s\n", ont.status().message().c_str());
    return false;
  }
  *ontology = std::move(ont).value();
  return true;
}

int RunDiscover(const Flags& flags) {
  Relation rel;
  Ontology ontology;
  if (!LoadInputs(flags, &rel, &ontology)) return 1;
  ExecContext exec(flags);
  PartitionCache cache(rel, exec.cache_budget, &exec.metrics);
  SynonymIndex index(ontology, rel.dict());
  FastOfdConfig config;
  config.min_support = flags.GetDouble("kappa", 1.0);
  config.max_level = static_cast<int>(flags.GetInt("max-level", 64));
  if (flags.GetBool("inh", false)) config.kind = OfdKind::kInheritance;
  config.theta = static_cast<int>(flags.GetInt("theta", 2));
  config.pool = &exec.pool;
  config.metrics = &exec.metrics;
  config.partitions = &cache;
  FastOfdResult result =
      FastOfd(rel, index, config, config.kind == OfdKind::kInheritance
                                      ? &ontology
                                      : nullptr)
          .Discover();
  exec.Report();
  std::fprintf(stderr, "%zu minimal OFDs (%lld candidates checked)\n",
               result.ofds.size(),
               static_cast<long long>(result.candidates_checked));
  std::string text = WriteSigma(result.ofds, rel.schema());
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

int RunVerify(const Flags& flags) {
  Relation rel;
  Ontology ontology;
  if (!LoadInputs(flags, &rel, &ontology)) return 1;
  auto sigma = ReadSigmaFile(flags.GetString("sigma", ""), rel.schema());
  if (!sigma.ok()) {
    std::fprintf(stderr, "error: %s\n", sigma.status().message().c_str());
    return 1;
  }
  ExecContext exec(flags);
  PartitionCache cache(rel, exec.cache_budget, &exec.metrics);
  SynonymIndex index(ontology, rel.dict());
  OfdVerifier verifier(rel, index, &ontology,
                       static_cast<int>(flags.GetInt("theta", 2)));
  const SigmaSet& ofds = sigma.value();

  // Checks of distinct OFDs are independent: compute them on the pool (the
  // partition cache is thread-safe and shares antecedents across OFDs), then
  // print in Σ order so output is identical for any thread count.
  struct Check {
    bool holds = false;
    double support = 0.0;
    SynonymSavings savings;
  };
  std::vector<Check> checks(ofds.size());
  {
    ScopedTimer t(&exec.metrics, "verify.seconds");
    exec.pool.ParallelFor(ofds.size(), [&](size_t i, int) {
      const Ofd& ofd = ofds[i];
      std::shared_ptr<const StrippedPartition> p = cache.Get(ofd.lhs);
      Check& check = checks[i];
      check.holds = verifier.Holds(ofd, *p);
      check.support = ofd.kind == OfdKind::kSynonym ? verifier.Support(ofd, *p)
                                                    : (check.holds ? 1 : 0);
      check.savings = verifier.Savings(ofd, *p);
    });
  }
  int violated = 0;
  for (size_t i = 0; i < ofds.size(); ++i) {
    std::printf("%-40s %-9s support=%.4f\n",
                RenderOfd(ofds[i], rel.schema()).c_str(),
                checks[i].holds ? "satisfied" : "VIOLATED", checks[i].support);
    violated += !checks[i].holds;
    exec.metrics.Add("verify.classes", checks[i].savings.classes);
    exec.metrics.Add("verify.synonym_classes", checks[i].savings.synonym_classes);
    exec.metrics.Add("verify.saved_tuples", checks[i].savings.saved_tuples);
  }
  exec.metrics.Add("verify.ofds_checked", static_cast<int64_t>(ofds.size()));
  exec.metrics.Add("verify.violations", violated);
  exec.Report();
  return violated == 0 ? 0 : 3;
}

int RunClean(const Flags& flags) {
  Relation rel;
  Ontology ontology;
  if (!LoadInputs(flags, &rel, &ontology)) return 1;
  auto sigma = ReadSigmaFile(flags.GetString("sigma", ""), rel.schema());
  if (!sigma.ok()) {
    std::fprintf(stderr, "error: %s\n", sigma.status().message().c_str());
    return 1;
  }
  ExecContext exec(flags);
  PartitionCache cache(rel, exec.cache_budget, &exec.metrics);
  OfdCleanConfig config;
  config.beam_size = static_cast<int>(flags.GetInt("beam", 0));
  config.tau = flags.GetDouble("tau", 0.65);
  config.pool = &exec.pool;
  config.metrics = &exec.metrics;
  config.partitions = &cache;
  OfdClean cleaner(rel, ontology, sigma.value(), config);
  OfdCleanResult result = cleaner.Run();
  exec.Report();

  std::printf("Pareto frontier (ontology insertions, data changes):\n");
  for (const ParetoPoint& p : result.pareto) {
    std::printf("  (%lld, %lld)\n", static_cast<long long>(p.ontology_changes),
                static_cast<long long>(p.data_changes));
  }
  std::printf("chosen: %zu ontology insertions, %lld data changes, %s\n",
              result.best.ontology_additions.size(),
              static_cast<long long>(result.best.data_changes),
              result.best.consistent ? "consistent" : "NOT consistent");
  for (const OntologyAddition& add : result.best.ontology_additions) {
    std::printf("  + '%s' under sense '%s'\n",
                rel.dict().String(add.value).c_str(),
                ontology.sense_name(add.sense).c_str());
    ontology.AddValue(add.sense, rel.dict().String(add.value));
  }

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    Status s = WriteCsvFile(out, result.best.repaired.ToCsv());
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
  }
  std::string ont_out = flags.GetString("ontology-out", "");
  if (!ont_out.empty()) {
    std::FILE* f = std::fopen(ont_out.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", ont_out.c_str());
      return 1;
    }
    std::string text = WriteOntology(ontology);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

int RunGen(const Flags& flags) {
  // --threads is accepted for flag symmetry; generation itself is a serial
  // seeded stream (parallelizing it would change the instance).
  ExecContext exec(flags);
  DataGenConfig config;
  config.num_rows = static_cast<int>(flags.GetInt("rows", 1000));
  config.num_antecedents = static_cast<int>(flags.GetInt("antecedents", 2));
  config.num_consequents = static_cast<int>(flags.GetInt("consequents", 2));
  config.num_senses = static_cast<int>(flags.GetInt("senses", 4));
  config.error_rate = flags.GetDouble("err", 0.03);
  config.incompleteness_rate = flags.GetDouble("inc", 0.0);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  ScopedTimer gen_timer(&exec.metrics, "gen.seconds");
  GeneratedData data = GenerateData(config);
  gen_timer.Stop();
  exec.metrics.Add("gen.rows", data.rel.num_rows());
  exec.metrics.Add("gen.errors", static_cast<int64_t>(data.errors.size()));
  exec.metrics.Add("gen.removed_values",
                   static_cast<int64_t>(data.removed_values.size()));
  std::fprintf(stderr, "generated %d rows, %zu errors, %zu removed values\n",
               data.rel.num_rows(), data.errors.size(),
               data.removed_values.size());
  auto write_text = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return true;
  };
  std::string out = flags.GetString("out", "generated.csv");
  if (!WriteCsvFile(out, data.rel.ToCsv()).ok()) return 1;
  if (!write_text(flags.GetString("ontology-out", "generated_ontology.txt"),
                  WriteOntology(data.ontology))) {
    return 1;
  }
  if (!write_text(flags.GetString("sigma-out", "generated_sigma.txt"),
                  WriteSigma(data.sigma, data.rel.schema()))) {
    return 1;
  }
  exec.Report();
  return 0;
}

ServiceServer* g_server = nullptr;

extern "C" void HandleTermSignal(int) {
  // Async-signal-safe: one byte down the server's self-pipe.
  if (g_server != nullptr) g_server->NotifyShutdown();
}

int RunServe(const Flags& flags) {
  ServerConfig config;
  config.unix_socket = flags.GetString("socket", "");
  config.tcp_port = static_cast<int>(flags.GetInt("port", 0));
  if (config.unix_socket.empty() && !flags.Has("port")) {
    std::fprintf(stderr, "error: serve requires --socket PATH or --port N\n");
    return 2;
  }
  config.threads = ExecContext::ResolveThreads(flags);
  config.queue_depth = static_cast<int>(flags.GetInt("queue-depth", 64));
  config.max_parked = static_cast<int>(flags.GetInt("max-parked", 1024));
  config.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  config.cache_budget_bytes = ExecContext::ResolveCacheBudget(flags);
  config.snapshot_dir = flags.GetString("snapshot-dir", "");

  MetricsRegistry metrics;
  ServiceServer server(config, &metrics);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleTermSignal);
  std::signal(SIGINT, HandleTermSignal);

  if (!config.unix_socket.empty()) {
    std::printf("listening on %s\n", config.unix_socket.c_str());
  } else {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;
  // Final metrics flush is part of the drain contract.
  std::string mode = flags.GetString("metrics", "text");
  std::string dump = mode == "json" ? metrics.ToJson() + "\n" : metrics.ToText();
  std::fputs(dump.c_str(), stderr);
  std::fprintf(stderr, "drained\n");
  return 0;
}

int RunClient(const Flags& flags, const std::vector<std::string>& positional) {
  Json request;
  std::string raw = flags.GetString("json", "");
  if (!raw.empty()) {
    auto parsed = Json::Parse(raw);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: --json: %s\n",
                   parsed.status().message().c_str());
      return 2;
    }
    request = std::move(parsed).value();
  } else {
    if (positional.empty()) {
      std::fprintf(stderr,
                   "error: client requires an op (ping|load|unload|list|verify|"
                   "discover|clean|update|stats|shutdown) or --json\n");
      return 2;
    }
    request = Json::Object();
    request.Set("id", Json::Int(1));
    request.Set("op", Json::Str(positional[0]));
    // Pass through op fields that are set; the server validates the rest.
    for (const char* key : {"session", "data", "ontology", "sigma", "out",
                            "attr", "value"}) {
      if (flags.Has(key)) request.Set(key, Json::Str(flags.GetString(key, "")));
    }
    for (const char* key : {"row", "beam", "max_level"}) {
      if (flags.Has(key)) request.Set(key, Json::Int(flags.GetInt(key, 0)));
    }
    for (const char* key : {"deadline_ms", "kappa", "tau", "ms"}) {
      if (flags.Has(key)) {
        request.Set(key, Json::Number(flags.GetDouble(key, 0.0)));
      }
    }
  }

  Result<ServiceClient> client =
      flags.Has("socket") ? ServiceClient::ConnectUnix(flags.GetString("socket", ""))
                          : ServiceClient::ConnectTcp(
                                static_cast<int>(flags.GetInt("port", 0)));
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().message().c_str());
    return 1;
  }
  Result<Json> response = client.value().Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status().message().c_str());
    return 1;
  }
  std::printf("%s\n", response.value().Dump().c_str());
  if (!response.value().Get("ok").AsBool()) return 1;
  // Mirror the batch CLI: a successful verify of a violated Σ exits 3.
  if (request.Get("op").AsString() == ops::kVerify &&
      !response.value().Get("consistent").AsBool(true)) {
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace fastofd

int main(int argc, char** argv) {
  using namespace fastofd;
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags = Flags::Parse(argc - 1, argv + 1);
  if (command == "discover") return RunDiscover(flags);
  if (command == "verify") return RunVerify(flags);
  if (command == "clean") return RunClean(flags);
  if (command == "gen") return RunGen(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "client") return RunClient(flags, flags.positional());
  return Usage();
}
