// Regression tests for the per-session strands: per-session response
// determinism must hold for any pool size and under parking, and a long
// request on one session must not delay another session. Runs under
// ThreadSanitizer in CI — the concurrent update+verify streams here are the
// data-race probe for the snapshot-read protocol (strand readers/writer +
// the session version seqlock).

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/metrics.h"
#include "datagen/datagen.h"
#include "ofd/sigma_io.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"

namespace fastofd {
namespace {

class ServiceShardTest : public ::testing::Test {
 protected:
  static std::string Dir() {
    const char* t = std::getenv("TMPDIR");
    std::string dir = (t ? t : "/tmp");
    // Per process, so concurrent runs of the suite never share files.
    dir += "/fastofd_service_shard_test_" + std::to_string(getpid());
    std::string cmd = "mkdir -p " + dir;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
  }

  void SetUp() override {
    dir_ = Dir();
    DataGenConfig cfg;
    cfg.num_rows = 400;
    cfg.error_rate = 0.03;
    cfg.seed = 11;
    GeneratedData data = GenerateData(cfg);
    data_path_ = dir_ + "/d.csv";
    ontology_path_ = dir_ + "/o.txt";
    sigma_path_ = dir_ + "/s.txt";
    ASSERT_TRUE(WriteCsvFile(data_path_, data.rel.ToCsv()).ok());
    WriteText(ontology_path_, WriteOntology(data.ontology));
    WriteText(sigma_path_, WriteSigma(data.sigma, data.rel.schema()));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void WriteText(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good());
  }

  static Json Req(const std::string& op, int64_t id = 1) {
    Json r = Json::Object();
    r.Set("id", Json::Int(id));
    r.Set("op", Json::Str(op));
    return r;
  }

  Json LoadReq(const std::string& session) {
    Json r = Req(ops::kLoad);
    r.Set("session", Json::Str(session));
    r.Set("data", Json::Str(data_path_));
    r.Set("ontology", Json::Str(ontology_path_));
    r.Set("sigma", Json::Str(sigma_path_));
    return r;
  }

  std::string dir_, data_path_, ontology_path_, sigma_path_;
};

constexpr int kUpdates = 12;
constexpr int kVerifies = 8;
constexpr int64_t kUpdateIdBase = 1000;
constexpr int64_t kVerifyIdBase = 2000;

// One client's pipelined stream: send everything (`gap` apart), then read
// every response.
std::vector<std::string> RunStream(ServiceClient& client,
                                   const std::vector<Json>& requests,
                                   std::chrono::milliseconds gap = {}) {
  std::vector<std::string> responses;
  for (const Json& request : requests) {
    Status sent = client.Send(request);
    EXPECT_TRUE(sent.ok()) << sent.message();
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto resp = client.ReadResponse();
    EXPECT_TRUE(resp.ok()) << "response " << i;
    if (!resp.ok()) break;
    responses.push_back(resp.value().Dump());
  }
  return responses;
}

// The update stream writes a constant value into NOISE0 — an attribute no
// OFD mentions — so the session's violation state never changes and every
// verify response has exactly one correct byte sequence, independent of how
// the streams interleave. Stream k uses its own ids and rows.
std::vector<Json> UpdateStream(int k = 0) {
  std::vector<Json> requests;
  for (int i = 0; i < kUpdates; ++i) {
    Json r = Json::Object();
    r.Set("id", Json::Int(kUpdateIdBase + 100 * k + i));
    r.Set("op", Json::Str(ops::kUpdate));
    r.Set("session", Json::Str("hot"));
    r.Set("row", Json::Int(kUpdates * k + i));
    r.Set("attr", Json::Str("NOISE0"));
    r.Set("value", Json::Str("zz"));
    requests.push_back(std::move(r));
  }
  return requests;
}

std::vector<Json> VerifyStream(int k = 0) {
  std::vector<Json> requests;
  for (int i = 0; i < kVerifies; ++i) {
    Json r = Json::Object();
    r.Set("id", Json::Int(kVerifyIdBase + 100 * k + i));
    r.Set("op", Json::Str(ops::kVerify));
    r.Set("session", Json::Str("hot"));
    requests.push_back(std::move(r));
  }
  return requests;
}

// Concurrent snapshot reads may complete in any order relative to each
// other, so responses are compared keyed by id, not by arrival position.
std::map<int64_t, std::string> ById(const std::vector<std::string>& dumps) {
  std::map<int64_t, std::string> by_id;
  for (const std::string& dump : dumps) {
    auto parsed = Json::Parse(dump);
    EXPECT_TRUE(parsed.ok());
    if (parsed.ok()) by_id[parsed.value().Get("id").AsInt(-1)] = dump;
  }
  return by_id;
}

TEST_F(ServiceShardTest, ConcurrentStreamsMatchSingleExecutorByteForByte) {
  // Reference: streams run back to back on one connection — a single
  // serial order.
  std::vector<std::string> ref_updates, ref_verifies;
  {
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = 2;
    config.queue_depth = 64;
    ServiceServer server(config, &metrics);
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::ConnectTcp(server.port());
    ASSERT_TRUE(client.ok());
    auto loaded = client.value().Call(LoadReq("hot"));
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();
    ref_updates = RunStream(client.value(), UpdateStream());
    ref_verifies = RunStream(client.value(), VerifyStream());
    server.NotifyShutdown();
    server.Wait();
  }
  ASSERT_EQ(ref_updates.size(), static_cast<size_t>(kUpdates));
  ASSERT_EQ(ref_verifies.size(), static_cast<size_t>(kVerifies));
  std::map<int64_t, std::string> ref_verifies_by_id = ById(ref_verifies);

  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = threads;
    config.queue_depth = 64;
    ServiceServer server(config, &metrics);
    ASSERT_TRUE(server.Start().ok());

    auto update_client = ServiceClient::ConnectTcp(server.port());
    auto verify_client = ServiceClient::ConnectTcp(server.port());
    ASSERT_TRUE(update_client.ok());
    ASSERT_TRUE(verify_client.ok());
    auto loaded = update_client.value().Call(LoadReq("hot"));
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();

    // Race the streams from two threads on two connections.
    std::vector<std::string> updates, verifies;
    std::thread update_thread([&] {
      updates = RunStream(update_client.value(), UpdateStream());
    });
    std::thread verify_thread([&] {
      verifies = RunStream(verify_client.value(), VerifyStream());
    });
    update_thread.join();
    verify_thread.join();
    server.NotifyShutdown();
    server.Wait();

    // Writes are per-session FIFO: the update connection sees its responses
    // in send order, byte-identical to the serial run.
    ASSERT_EQ(updates.size(), ref_updates.size());
    for (size_t i = 0; i < updates.size(); ++i) {
      EXPECT_EQ(updates[i], ref_updates[i]) << "update " << i;
    }
    // Reads ran as concurrent snapshots (any completion order), but each
    // response's bytes must match the serial run exactly.
    EXPECT_EQ(ById(verifies), ref_verifies_by_id);
    EXPECT_GT(metrics.Snapshot().Counter("serve.snapshot_reads"), 0);
    EXPECT_EQ(metrics.Snapshot().Counter("serve.rejected"), 0);
  }
}

TEST_F(ServiceShardTest, SharedSessionStreamsFromManyConnectionsMatchSerial) {
  // Several connections drive one session at once: a request that finds the
  // strand idle runs on its connection's reader, one that finds it busy
  // queues for the pool. The streams start behind a short pool `sleep` on
  // the session and are paced, so their first requests queue and the later
  // ones mostly find the strand idle: both paths interleave on one strand.
  constexpr int kUpdateStreams = 2;
  constexpr int kVerifyStreams = 3;
  std::vector<std::vector<Json>> streams;
  for (int k = 0; k < kUpdateStreams; ++k) streams.push_back(UpdateStream(k));
  for (int k = 0; k < kVerifyStreams; ++k) streams.push_back(VerifyStream(k));

  // Reference: every stream back to back on one connection.
  std::vector<std::vector<std::string>> expected;
  {
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = 2;
    ServiceServer server(config, &metrics);
    ASSERT_TRUE(server.Start().ok());
    auto client = ServiceClient::ConnectTcp(server.port());
    ASSERT_TRUE(client.ok());
    auto loaded = client.value().Call(LoadReq("hot"));
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();
    for (const std::vector<Json>& stream : streams) {
      expected.push_back(RunStream(client.value(), stream));
    }
    server.NotifyShutdown();
    server.Wait();
  }

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsRegistry metrics;
    ServerConfig config;
    config.threads = threads;
    ServiceServer server(config, &metrics);
    ASSERT_TRUE(server.Start().ok());
    std::vector<ServiceClient> clients;
    for (size_t k = 0; k < streams.size(); ++k) {
      auto client = ServiceClient::ConnectTcp(server.port());
      ASSERT_TRUE(client.ok());
      clients.push_back(std::move(client).value());
    }
    auto blocker = ServiceClient::ConnectTcp(server.port());
    ASSERT_TRUE(blocker.ok());
    auto loaded = blocker.value().Call(LoadReq("hot"));
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();

    Json sleep_req = Req(ops::kSleep, 1);
    sleep_req.Set("session", Json::Str("hot"));
    sleep_req.Set("ms", Json::Number(30));
    ASSERT_TRUE(blocker.value().Send(sleep_req).ok());
    while (metrics.Snapshot().Counter("serve.requests.sleep") == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::vector<std::string>> got(streams.size());
    std::vector<std::thread> runners;
    for (size_t k = 0; k < streams.size(); ++k) {
      runners.emplace_back([&, k] {
        got[k] = RunStream(clients[k], streams[k],
                           std::chrono::milliseconds(5));
      });
    }
    for (std::thread& runner : runners) runner.join();
    EXPECT_TRUE(blocker.value().ReadResponse().ok());  // The sleep.
    server.NotifyShutdown();
    server.Wait();

    for (size_t k = 0; k < streams.size(); ++k) {
      if (k < kUpdateStreams) {
        EXPECT_EQ(got[k], expected[k]) << "update stream " << k;
      } else {
        EXPECT_EQ(ById(got[k]), ById(expected[k])) << "verify stream " << k;
      }
    }
    MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(snapshot.Counter("serve.rejected"), 0);
    const int64_t requests = kUpdateStreams * kUpdates +
                             kVerifyStreams * kVerifies;
    EXPECT_GT(snapshot.Counter("serve.inline"), 0);
    EXPECT_LT(snapshot.Counter("serve.inline"), requests);
  }
}

TEST_F(ServiceShardTest, LongRequestOnOneSessionDoesNotDelayAnother) {
  MetricsRegistry metrics;
  ServerConfig config;
  config.threads = 2;
  ServiceServer server(config, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = ServiceClient::ConnectTcp(server.port());
  auto prober = ServiceClient::ConnectTcp(server.port());
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(prober.ok());
  auto loaded = prober.value().Call(LoadReq("hot"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();

  // The sleep holds one pool worker and the "busy" strand; the verify on
  // "hot" must run on the other worker instead of queueing behind it.
  Json sleep_req = Req(ops::kSleep, 1);
  sleep_req.Set("session", Json::Str("busy"));
  sleep_req.Set("ms", Json::Number(600));
  ASSERT_TRUE(blocker.value().Send(sleep_req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Json verify_req = Req(ops::kVerify, 2);
  verify_req.Set("session", Json::Str("hot"));
  auto begin = std::chrono::steady_clock::now();
  auto verify = prober.value().Call(verify_req);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify.value().Get("ok").AsBool()) << verify.value().Dump();
  // Queued behind the sleep, this would wait out its remaining ~550 ms.
  EXPECT_LT(elapsed_ms, 400.0);

  EXPECT_TRUE(blocker.value().ReadResponse().ok());  // The sleep completes.
  server.NotifyShutdown();
  server.Wait();
}

TEST_F(ServiceShardTest, ParkedStreamIsPromotedInOrder) {
  // A pipelined update/verify stream on one session, behind a sleep on that
  // session. With one queue slot nearly every request parks, so the
  // responses can only come back in order if parked requests are promoted
  // in arrival order. No two verifies are adjacent: reads of one session
  // may run concurrently, writes between them fix the order.
  std::vector<Json> stream;
  Json sleep_req = Req(ops::kSleep, 1);
  sleep_req.Set("session", Json::Str("hot"));
  sleep_req.Set("ms", Json::Number(200));
  stream.push_back(sleep_req);
  for (int i = 0; i < 24; ++i) {
    // Writes into a consequent attribute, so the verifies see the
    // violation state change as the stream advances.
    Json update = Req(ops::kUpdate, 100 + i);
    update.Set("session", Json::Str("hot"));
    update.Set("row", Json::Int(i));
    update.Set("attr", Json::Str("VAL0"));
    update.Set("value", Json::Str("v" + std::to_string(i % 3)));
    stream.push_back(update);
    if (i % 2 == 1) {
      Json verify = Req(ops::kVerify, 200 + i);
      verify.Set("session", Json::Str("hot"));
      stream.push_back(verify);
    }
  }

  // Reference: the in-process core, one request at a time.
  std::vector<std::string> expected;
  {
    MetricsRegistry metrics;
    ServiceServer replay(ServerConfig{}, &metrics);
    ASSERT_TRUE(replay.Execute(LoadReq("hot")).Get("ok").AsBool());
    for (const Json& request : stream) {
      expected.push_back(replay.Execute(request).Dump());
    }
  }

  MetricsRegistry metrics;
  ServerConfig config;
  config.threads = 4;
  config.queue_depth = 1;
  ServiceServer server(config, &metrics);
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::ConnectTcp(server.port());
  ASSERT_TRUE(client.ok());
  auto loaded = client.value().Call(LoadReq("hot"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().Get("ok").AsBool()) << loaded.value().Dump();

  std::vector<std::string> responses = RunStream(client.value(), stream);
  server.NotifyShutdown();
  server.Wait();
  EXPECT_EQ(responses, expected);
  EXPECT_EQ(metrics.Snapshot().Counter("serve.rejected"), 0);
  EXPECT_EQ(metrics.Snapshot().Counter("serve.shed"), 0);
}

}  // namespace
}  // namespace fastofd
