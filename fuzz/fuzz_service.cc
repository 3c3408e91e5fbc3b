// Fuzz harness: in-process service request dispatch (service/server.h).
//
// Each input is one NDJSON request line. It is parsed with the wire codec
// and, when it parses, dispatched through ServiceServer::Execute against a
// resident server holding one small pre-loaded session — the same
// deterministic core the socket path wraps. Every reachable handler must
// return a response envelope rather than crash, whatever the field types.
//
// Ops with external effects are skipped: `load` opens fuzzer-chosen paths,
// `sleep` stalls the harness, and `shutdown` flips the drain flag for all
// subsequent inputs.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/csv.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "ofd/sigma_io.h"
#include "ontology/ontology.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"

namespace {

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  FASTOFD_CHECK(out.good());
}

// One resident server with session "s" (50 rows, with Σ), built on first use.
fastofd::ServiceServer& Server() {
  using namespace fastofd;
  static ServiceServer* server = [] {
    // The session's files live under $TMPDIR and go at process exit.
    static std::string dir;
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr ? tmp : "/tmp") +
                       "/fastofd_fuzz_service_XXXXXX";
    FASTOFD_CHECK(mkdtemp(tmpl.data()) != nullptr);
    dir = tmpl;
    std::atexit([] { std::filesystem::remove_all(dir); });
    DataGenConfig cfg;
    cfg.num_rows = 50;
    cfg.error_rate = 0.05;
    cfg.seed = 11;
    GeneratedData data = GenerateData(cfg);
    const std::string& base = dir;
    FASTOFD_CHECK(WriteCsvFile(base + "/d.csv", data.rel.ToCsv()).ok());
    WriteText(base + "/o.txt", WriteOntology(data.ontology));
    WriteText(base + "/s.txt", WriteSigma(data.sigma, data.rel.schema()));

    static MetricsRegistry metrics;
    ServerConfig config;
    config.threads = 1;
    auto* s = new ServiceServer(config, &metrics);
    Json load = Json::Object();
    load.Set("id", Json::Int(0));
    load.Set("op", Json::Str(ops::kLoad));
    load.Set("session", Json::Str("s"));
    load.Set("data", Json::Str(base + "/d.csv"));
    load.Set("ontology", Json::Str(base + "/o.txt"));
    load.Set("sigma", Json::Str(base + "/s.txt"));
    Json response = s->Execute(load);
    FASTOFD_CHECK(response.Get("ok").AsBool());
    return s;
  }();
  return *server;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace fastofd;
  std::string_view line(reinterpret_cast<const char*>(data), size);
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) return 0;
  const std::string& op = parsed.value().Get("op").AsString();
  if (op == ops::kLoad || op == ops::kSleep || op == ops::kShutdown) return 0;
  // Skipped so session "s" stays resident: with it gone, every later
  // update/verify input would degrade to the 404 path.
  if (op == ops::kUnload) return 0;
  Json response = Server().Execute(parsed.value());
  FASTOFD_CHECK(response.Has("ok"));
  return 0;
}
