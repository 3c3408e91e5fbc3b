// Service-mode benchmark: what a resident `fastofd serve` process buys over
// per-request batch invocations, and how it behaves at saturation.
//
//   1. warm-vs-cold — a verify against a loaded session (answered from the
//      incremental verifier's maintained state) vs paying
//      load+verify+unload per request, the batch-CLI cost model.
//   2. update-latency — online incremental `update` cost as the relation
//      grows, against the full re-verification it replaces (sublinear in N:
//      the incremental path touches only the updated row's classes). The
//      full re-verification is timed here, from scratch, on a copy of the
//      session's data that received the same updates.
//   3. closed-loop load — a sweep of client counts (12/32/128/256, capped
//      by --clients), each point a fresh server with per-session strands
//      and bounded waiting: client-observed p50/p95/p99 latency plus 503
//      rejections. The `hw` column records the machine's hardware
//      concurrency so the CI gate can arm its rejection/p99 floors only on
//      capable runners (tools/bench_gate.py).
//   4. drain — queued requests at SIGTERM-equivalent shutdown: every
//      accepted request is answered, none lost.
//
//   bench_serve [--rows N] [--requests R] [--clients C] [--updates U]
//               [--seed S] [--queue-depth D] [--json PATH]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "exec/thread_pool.h"
#include "ofd/sigma_io.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"

using namespace fastofd;
using namespace fastofd::bench;

namespace {

struct Instance {
  std::string data, ontology, sigma;
};

Instance WriteInstance(const std::string& dir, int rows, uint64_t seed) {
  DataGenConfig cfg;
  cfg.num_rows = rows;
  cfg.num_antecedents = 2;
  cfg.num_consequents = 2;
  cfg.num_senses = 4;
  cfg.classes_per_antecedent = 16;
  cfg.error_rate = 0.0;
  cfg.seed = seed;
  GeneratedData data = GenerateData(cfg);
  Instance inst{dir + "/d" + std::to_string(rows) + ".csv",
                dir + "/o" + std::to_string(rows) + ".txt",
                dir + "/s" + std::to_string(rows) + ".txt"};
  if (!WriteCsvFile(inst.data, data.rel.ToCsv()).ok()) std::abort();
  auto write_text = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) std::abort();
    std::fputs(text.c_str(), f);
    std::fclose(f);
  };
  write_text(inst.ontology, WriteOntology(data.ontology));
  write_text(inst.sigma, WriteSigma(data.sigma, data.rel.schema()));
  return inst;
}

Json Req(const std::string& op, const std::string& session = "") {
  Json r = Json::Object();
  r.Set("id", Json::Int(1));
  r.Set("op", Json::Str(op));
  if (!session.empty()) r.Set("session", Json::Str(session));
  return r;
}

Json LoadReq(const std::string& session, const Instance& inst) {
  Json r = Req(ops::kLoad, session);
  r.Set("data", Json::Str(inst.data));
  r.Set("ontology", Json::Str(inst.ontology));
  r.Set("sigma", Json::Str(inst.sigma));
  return r;
}

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  int rows = static_cast<int>(flags.GetInt("rows", 20000));
  int requests = static_cast<int>(flags.GetInt("requests", 50));
  int clients = static_cast<int>(flags.GetInt("clients", 256));
  int updates = static_cast<int>(flags.GetInt("updates", 300));
  int queue_depth = static_cast<int>(flags.GetInt("queue-depth", 64));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 33));

  Banner("Serve", "resident service vs batch invocations, tail latency, drain",
         "service-mode extension (sessions + incremental verification)");

  ScratchDir scratch("fastofd_bench_serve");
  const std::string& dir = scratch.path();
  if (!scratch.ok()) return 1;

  // -------------------------------------------------------------- 1. warm
  {
    Instance inst = WriteInstance(dir, rows, seed);
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = 2;
    ServiceServer server(config, &metrics);

    double cold_s = TimeIt([&] {
      for (int i = 0; i < requests; ++i) {
        server.Execute(LoadReq("cold", inst));
        server.Execute(Req(ops::kVerify, "cold"));
        server.Execute(Req(ops::kUnload, "cold"));
      }
    });
    server.Execute(LoadReq("warm", inst));
    double warm_s = TimeIt([&] {
      for (int i = 0; i < requests; ++i) server.Execute(Req(ops::kVerify, "warm"));
    });

    Table table({"mode", "ms/request", "speedup"});
    double cold_ms = cold_s / requests * 1e3;
    double warm_ms = warm_s / requests * 1e3;
    table.AddRow({"cold (load+verify+unload)", Fmt("%.4f", cold_ms), "1.0"});
    table.AddRow({"warm session", Fmt("%.4f", warm_ms),
                  Fmt("%.1f", cold_ms / warm_ms)});
    std::printf("\n[1] warm-session verify vs per-request state rebuild "
                "(N=%d, %d requests)\n\n", rows, requests);
    table.Print();
    WriteJsonIfRequested(flags, "serve_warm_vs_cold", table);
  }

  // ---------------------------------------------------------- 2. updates
  {
    Table table({"N", "update(ms)", "full_reverify(ms)", "speedup"});
    std::printf("[2] online update latency vs full re-verification\n\n");
    for (int n : {rows / 4, rows / 2, rows, rows * 2}) {
      if (n <= 0) continue;
      Instance inst = WriteInstance(dir, n, seed + static_cast<uint64_t>(n));
      MetricsRegistry metrics;
      ServiceServer server(ServerConfig{}, &metrics);
      Json loaded = server.Execute(LoadReq("u", inst));
      if (!loaded.Get("ok").AsBool()) std::abort();
      int attrs = static_cast<int>(loaded.Get("attrs").AsInt());

      Rng rng(seed ^ static_cast<uint64_t>(n));
      std::vector<Json> update_reqs;
      for (int i = 0; i < updates; ++i) {
        Json r = Req(ops::kUpdate, "u");
        r.Set("row", Json::Int(static_cast<int64_t>(rng.NextUint(
                         static_cast<uint64_t>(n)))));
        r.Set("attr", Json::Int(static_cast<int64_t>(
                          rng.NextUint(static_cast<uint64_t>(attrs)))));
        r.Set("value", Json::Str("bench-v" + std::to_string(i % 23)));
        update_reqs.push_back(std::move(r));
      }
      double upd_s = TimeIt([&] {
        for (const Json& r : update_reqs) {
          if (!server.Execute(r).Get("ok").AsBool()) std::abort();
        }
      });

      // The same state rebuilt outside the session: its sources, the index
      // compiled before the updates (as the session's is), then the updates.
      Relation rel = Relation::FromCsv(ReadCsvFile(inst.data).value()).value();
      const Ontology ontology = ReadOntologyFile(inst.ontology).value();
      const SynonymIndex index(ontology, rel.dict());
      const SigmaSet sigma = ReadSigmaFile(inst.sigma, rel.schema()).value();
      for (const Json& r : update_reqs) {
        rel.Set(static_cast<RowId>(r.Get("row").AsInt()),
                static_cast<AttrId>(r.Get("attr").AsInt()),
                r.Get("value").AsString());
      }
      // Full re-verification: every OFD re-checked over a freshly built
      // Π*_lhs, the OFDs spread over a pool the size of the server's.
      ThreadPool pool(std::max(2, ServerConfig{}.threads + 1));
      std::vector<char> holds(sigma.size());
      std::vector<double> support(sigma.size());
      double verify_s = TimeIt([&] {
        OfdVerifier verifier(rel, index, &ontology);
        pool.ParallelFor(sigma.size(), [&](size_t i, int) {
          const StrippedPartition lhs =
              StrippedPartition::BuildForSet(rel, sigma[i].lhs);
          holds[i] = verifier.Holds(sigma[i], lhs) ? 1 : 0;
          support[i] = sigma[i].kind == OfdKind::kSynonym
                           ? verifier.Support(sigma[i], lhs)
                           : (holds[i] != 0 ? 1.0 : 0.0);
        });
      });
      // The session's maintained answer must be the one recomputed here.
      const Json verified = server.Execute(Req(ops::kVerify, "u"));
      const std::vector<Json>& served = verified.Get("ofds").items();
      if (served.size() != sigma.size()) std::abort();
      for (size_t i = 0; i < sigma.size(); ++i) {
        if (served[i].Get("holds").AsBool() != (holds[i] != 0) ||
            served[i].Get("support").AsDouble() != support[i]) {
          std::abort();
        }
      }
      double upd_ms = upd_s / updates * 1e3;
      table.AddRow({Fmt("%d", n), Fmt("%.4f", upd_ms),
                    Fmt("%.3f", verify_s * 1e3),
                    Fmt("%.1f", verify_s * 1e3 / upd_ms)});
    }
    table.Print();
    WriteJsonIfRequested(flags, "serve_update_latency", table);
  }

  // --------------------------------------------------- 3. closed-loop load
  {
    Instance inst = WriteInstance(dir, rows / 4, seed + 99);
    const int hw = ThreadPool::DefaultThreads();
    Table table({"clients", "queue_depth", "hw", "sent", "ok",
                 "rejected_503", "p50_ms", "p95_ms", "p99_ms"});
    std::printf("[3] closed-loop load over TCP (every request answered: "
                "ok + 503 = sent)\n\n");
    for (int point : {12, 32, 128, 256}) {
      if (point > clients) continue;
      // Fresh server per point so the sweep measures steady-state behaviour
      // at that concurrency, not the tail of the previous point's backlog.
      MetricsRegistry metrics;
      ServerConfig config;
      config.threads = hw;
      config.queue_depth = queue_depth;
      config.tcp_port = 0;
      ServiceServer server(config, &metrics);
      if (!server.Start().ok()) return 1;
      {
        auto admin = ServiceClient::ConnectTcp(server.port());
        if (!admin.ok() ||
            !admin.value().Call(LoadReq("hot", inst)).value().Get("ok").AsBool()) {
          return 1;
        }
      }

      std::atomic<int> ok{0}, rejected{0};
      std::vector<double> latencies_ms(
          static_cast<size_t>(point) * static_cast<size_t>(requests), 0.0);
      std::vector<std::thread> threads;
      for (int c = 0; c < point; ++c) {
        threads.emplace_back([&, c] {
          auto client = ServiceClient::ConnectTcp(server.port());
          if (!client.ok()) return;
          for (int i = 0; i < requests; ++i) {
            Timer timer;
            auto resp = client.value().Call(Req(ops::kVerify, "hot"));
            if (!resp.ok()) return;
            latencies_ms[static_cast<size_t>(c) * static_cast<size_t>(requests) +
                         static_cast<size_t>(i)] = timer.Millis();
            if (resp.value().Get("ok").AsBool()) {
              ok.fetch_add(1);
            } else {
              rejected.fetch_add(1);
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      server.NotifyShutdown();
      server.Wait();

      std::vector<double> sorted;
      for (double ms : latencies_ms) {
        if (ms > 0) sorted.push_back(ms);
      }
      std::sort(sorted.begin(), sorted.end());
      table.AddRow({Fmt("%d", point), Fmt("%d", queue_depth), Fmt("%d", hw),
                    Fmt("%d", point * requests), Fmt("%d", ok.load()),
                    Fmt("%d", rejected.load()),
                    Fmt("%.3f", Quantile(sorted, 0.50)),
                    Fmt("%.3f", Quantile(sorted, 0.95)),
                    Fmt("%.3f", Quantile(sorted, 0.99))});
    }
    table.Print();
    WriteJsonIfRequested(flags, "serve_closed_loop", table);
  }

  // -------------------------------------------------------------- 4. drain
  {
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = 2;
    config.queue_depth = std::max(queue_depth, 8);
    config.tcp_port = 0;
    ServiceServer server(config, &metrics);
    if (!server.Start().ok()) return 1;
    auto client = ServiceClient::ConnectTcp(server.port());
    if (!client.ok()) return 1;
    Json sleep_req = Req(ops::kSleep);
    sleep_req.Set("ms", Json::Number(100));
    if (!client.value().Send(sleep_req).ok()) return 1;
    int queued = 4;
    for (int i = 0; i < queued; ++i) {
      if (!client.value().Send(Req(ops::kPing)).ok()) return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.NotifyShutdown();
    int answered = 0;
    for (int i = 0; i < 1 + queued; ++i) {
      if (!client.value().ReadResponse().ok()) break;
      ++answered;
    }
    server.Wait();
    Table drain({"queued_at_shutdown", "answered", "lost"});
    drain.AddRow({Fmt("%d", 1 + queued), Fmt("%d", answered),
                  Fmt("%d", 1 + queued - answered)});
    std::printf("[4] graceful drain: responses delivered for every accepted "
                "request\n\n");
    drain.Print();
    WriteJsonIfRequested(flags, "serve_drain", drain);
    if (answered != 1 + queued) {
      std::fprintf(stderr, "DRAIN LOST RESPONSES\n");
      return 1;
    }
  }
  return 0;
}
