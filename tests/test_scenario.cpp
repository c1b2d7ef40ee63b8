// Golden and drift tests of the one scenario pipeline (sprint::Scenario).
//
// Golden: each case rebuilds a CLI run through Scenario exactly as
// `nocsprint_cli` does (sweep point i at task_seed(seed, i)) and compares
// the FNV-1a digest of its `report=` file bytes with the digest of the
// report the CLI wrote before Scenario existed, when simulate, sweep and
// the former `mode=topo` each had their own copy of the pipeline.  The two
// former `mode=topo` runs (now `mode=simulate topology=...`, whose report
// adds the scheme and power blocks) compare every key the old report had
// except `mode`.
//
// Drift: the serve runner, the CLI path and the builders must agree — the
// serve simulate result is Scenario::report without `mode`, network shape
// keys reach every entry point, a serve sweep with faults equals the CLI
// sweep, topology runs are sim_threads- and checkpoint-independent, and
// the combinations no builder can honour are refused.
//
// Run:         ctest --test-dir build -L golden --output-on-failure
// Regenerate:  NOCS_GOLDEN_PRINT=1 build/tests/test_scenario
//              prints every case's digest; paste the values into kGolden.
//              Regenerating means report outputs moved on purpose: record
//              why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/topology.hpp"
#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "sprint/scenario.hpp"

namespace nocs {
namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

Config config_of(const KeyValues& kv) {
  Config cfg;
  for (const auto& [key, value] : kv) cfg.set(key, value);
  return cfg;
}

/// FNV-1a (64-bit) over the bytes of a report file.
std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Digest of `doc` as noc::write_report writes it.
std::string file_digest(const json::Value& doc) {
  return fnv1a(doc.dump(2) + "\n");
}

/// `nocsprint_cli mode=simulate` report of `cfg` (`mode` omitted when
/// empty, as the serve runner reports it).
json::Value simulate_report(const Config& cfg,
                            const std::string& mode = "simulate") {
  const sprint::Scenario sc = sprint::Scenario::from_config(cfg);
  const noc::SimConfig sim = sprint::simulate_window(cfg);
  cfg.reject_unknown();
  sprint::ScenarioNetwork net = sc.build(sc.seed());
  const noc::SimResults r = sc.run(net, sim, {});
  return sc.report(net, r, sim.injection_rate, mode);
}

/// `nocsprint_cli mode=sweep` report of `cfg`, tagged with `tag_key`.
json::Value sweep_report(const Config& cfg,
                         const std::string& tag_key = "mode") {
  const sprint::Scenario sc = sprint::Scenario::from_config(cfg);
  const std::vector<double> rates =
      sprint::parse_rates(cfg.get_string("rates", "0.05:0.05:0.5"));
  cfg.reject_unknown();
  json::Value points = json::Value::array();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    sprint::ScenarioNetwork net = sc.build(task_seed(sc.seed(), i));
    noc::SimConfig sim = sprint::sweep_window();
    sim.injection_rate = rates[i];
    points.push_back(
        sprint::Scenario::point_report(sc.run(net, sim, {}), rates[i]));
  }
  return sc.sweep_report(tag_key, std::move(points));
}

/// The keys of a former `mode=topo` report, in its order, minus `mode`.
json::Value former_topo_keys(const json::Value& doc) {
  json::Value old = json::Value::object();
  const json::Value sim_keys = noc::to_json(noc::SimResults{});
  for (const auto& [key, value] : sim_keys.members()) old.set(key, doc.at(key));
  for (const char* key :
       {"topology", "level", "traffic", "injection_rate", "seed",
        "topology_fingerprint", "deadlock_channels", "deadlock_dependencies"})
    old.set(key, doc.at(key));
  return old;
}

/// Digests of the `report=` files the CLI wrote before Scenario existed
/// (for the topo cases: without their `"mode": "topo"` line, and with
/// `topology_fingerprint` written as 16 hex digits instead of a double).
const std::map<std::string, std::string> kGolden = {
    {"simulate", "1d583df0b8b13710"},
    {"simulate_full", "f149d96c9f74ef76"},
    {"simulate_protocol", "f2dd65719e59d755"},
    {"simulate_pipeline3", "217c90ad42067744"},
    {"simulate_faults", "4a21cd88c5d75c66"},
    {"simulate_sim_threads2", "1d583df0b8b13710"},
    {"sweep", "a57a1d35dbf0af41"},
    {"sweep_faults", "27fcb53d6467f7dd"},
    {"topo_ring_circulant", "8a06d9a79e686efc"},
    {"topo_hamming", "ca45d2fecacefcef"},
};

void expect_golden(const std::string& name, const std::string& actual) {
  if (std::getenv("NOCS_GOLDEN_PRINT") != nullptr)
    std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), actual.c_str());
  EXPECT_EQ(actual, kGolden.at(name)) << "case " << name;
}

TEST(ScenarioGolden, Simulate) {
  expect_golden("simulate", file_digest(simulate_report(config_of({}))));
  expect_golden("simulate_full", file_digest(simulate_report(
                                     config_of({{"scheme", "full"}}))));
  expect_golden("simulate_protocol",
                file_digest(simulate_report(
                    config_of({{"classes", "2"}, {"protocol", "true"}}))));
  expect_golden("simulate_pipeline3", file_digest(simulate_report(
                                          config_of({{"pipeline", "3"}}))));
  expect_golden("simulate_faults",
                file_digest(simulate_report(config_of(
                    {{"faults", "true"}, {"fault_flip_rate", "0.001"}}))));
  expect_golden("simulate_sim_threads2",
                file_digest(simulate_report(
                    config_of({{"sim_threads", "2"}}))));
}

TEST(ScenarioGolden, Sweep) {
  expect_golden("sweep", file_digest(sweep_report(
                             config_of({{"rates", "0.05:0.1:0.45"}}))));
  expect_golden("sweep_faults",
                file_digest(sweep_report(config_of(
                    {{"rates", "0.05:0.1:0.45"}, {"faults", "true"}}))));
}

TEST(ScenarioGolden, FormerTopoMode) {
  expect_golden("topo_ring_circulant",
                file_digest(former_topo_keys(simulate_report(config_of(
                    {{"topology", "ring_circulant"},
                     {"ring_skip", "4"},
                     {"level", "8"}})))));
  expect_golden("topo_hamming",
                file_digest(former_topo_keys(simulate_report(
                    config_of({{"topology", "hamming"}, {"level", "8"}})))));
}

TEST(ScenarioGolden, TopologyFingerprintIsExactIn16HexDigits) {
  // A uint64 written as a JSON number goes through a double and loses its
  // low bits; the reports carry it as a hex string instead.
  const std::uint64_t fp = noc::Topology::ring_circulant(16, 4).fingerprint();
  char expected[17];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(fp));
  const KeyValues kv = {{"topology", "ring_circulant"},
                        {"ring_skip", "4"},
                        {"level", "8"}};
  KeyValues sweep_kv = kv;
  sweep_kv.emplace_back("rates", "0.05:0.05:0.05");
  for (const json::Value& doc :
       {simulate_report(config_of(kv)), sweep_report(config_of(sweep_kv))}) {
    const json::Value parsed = json::Value::parse(doc.dump(2));
    const json::Value& field = parsed.at("topology_fingerprint");
    ASSERT_TRUE(field.is_string()) << field.dump();
    EXPECT_EQ(field.as_string(), expected);
  }
}

// --- drift between entry points ---------------------------------------------

/// Runs `spec` to completion through the serve runner and aggregator.
json::Value serve_result(const serve::JobSpec& spec) {
  serve::ServeLimits limits;
  limits.workers = 2;
  limits.backoff_base_ms = 1;
  limits.backoff_cap_ms = 4;
  limits.supervise_every_ms = 2;
  limits.wait_default_ms = 300000;
  serve::JobScheduler sched(limits, serve::make_sim_runner(""),
                            serve::make_sim_aggregator(), nullptr);
  const serve::SubmitOutcome out = sched.submit(spec);
  EXPECT_EQ(out.code, serve::SubmitOutcome::Code::kAccepted);
  const json::Value done = sched.wait(out.job_id);
  EXPECT_EQ(done.at("state").as_string(), "done") << done.dump();
  return done.at("result");
}

serve::JobSpec spec_of(const std::string& kind, const KeyValues& kv) {
  serve::JobSpec spec;
  spec.kind = kind;
  for (const auto& [key, value] : kv) spec.params.set(key, value);
  return spec;
}

TEST(ScenarioDrift, ServeSimulateIsTheReportWithoutMode) {
  const KeyValues kv = {{"level", "8"}, {"measure", "3000"},
                        {"traffic", "transpose"}, {"injection", "0.15"}};
  json::Value expected = simulate_report(config_of(kv), "");
  EXPECT_EQ(expected.find("mode"), nullptr);
  expected.set("kind", "simulate");  // the aggregator's tag
  EXPECT_EQ(serve_result(spec_of("simulate", kv)).dump(), expected.dump());
}

TEST(ScenarioDrift, WidthAndHeightReachEveryEntryPoint) {
  const KeyValues big = {{"width", "8"}, {"height", "8"}, {"level", "8"},
                         {"measure", "2000"}};
  const sprint::Scenario sc = sprint::Scenario::from_config(config_of(big));
  EXPECT_EQ(sc.build(sc.seed()).bundle.network->num_nodes(), 64);

  // Simulate: the 8x8 run differs from the default 4x4 one, and serve
  // reports the 8x8 run.
  const json::Value big_sim = simulate_report(config_of(big), "");
  const json::Value small_sim = simulate_report(
      config_of({{"level", "8"}, {"measure", "2000"}}), "");
  EXPECT_NE(big_sim.dump(), small_sim.dump());
  json::Value expected = big_sim;
  expected.set("kind", "simulate");
  EXPECT_EQ(serve_result(spec_of("simulate", big)).dump(), expected.dump());

  // Sweep: same for every point.
  const KeyValues big_sweep = {{"width", "8"}, {"height", "8"},
                               {"level", "8"}, {"rates", "0.1:0.1:0.2"}};
  const json::Value cli = sweep_report(config_of(big_sweep), "kind");
  EXPECT_NE(cli.at("points").dump(),
            sweep_report(config_of({{"level", "8"}, {"rates", "0.1:0.1:0.2"}}),
                         "kind")
                .at("points")
                .dump());
  EXPECT_EQ(serve_result(spec_of("sweep", big_sweep)).dump(), cli.dump());
}

TEST(ScenarioDrift, ServeSweepWithFaultsEqualsTheCliSweep) {
  // Reshape the serve result as the CLI report (tag "mode" instead of
  // "kind") and hold it to the recorded CLI digest.
  const json::Value served = serve_result(spec_of(
      "sweep", {{"rates", "0.05:0.1:0.45"}, {"faults", "true"}}));
  json::Value as_cli = json::Value::object();
  as_cli.set("mode", "sweep");
  for (const auto& [key, value] : served.members())
    if (key != "kind") as_cli.set(key, value);
  EXPECT_EQ(file_digest(as_cli), kGolden.at("sweep_faults"));
}

TEST(ScenarioDrift, TopologyRunIsSimThreadsIndependent) {
  const json::Value one = simulate_report(
      config_of({{"topology", "ring_circulant"}, {"level", "8"},
                 {"sim_threads", "1"}, {"injection", "0.2"}}));
  const json::Value two = simulate_report(
      config_of({{"topology", "ring_circulant"}, {"level", "8"},
                 {"sim_threads", "2"}, {"injection", "0.2"}}));
  EXPECT_EQ(one.dump(), two.dump());
}

TEST(ScenarioDrift, TopologyRunResumesFromCheckpointBitIdentically) {
  const Config cfg = config_of({{"topology", "ring_circulant"},
                                {"level", "8"},
                                {"injection", "0.2"}});
  const sprint::Scenario sc = sprint::Scenario::from_config(cfg);
  const noc::SimConfig sim = sprint::simulate_window(cfg);
  const std::string snap =
      ::testing::TempDir() + "scenario_ring_resume.nocsnap";
  std::remove(snap.c_str());

  sprint::ScenarioNetwork whole = sc.build(sc.seed());
  const noc::SimResults r_whole = sc.run(whole, sim, {});

  sprint::ScenarioNetwork first = sc.build(sc.seed());
  noc::CheckpointConfig stop;
  stop.save_path = snap;
  stop.stop_at = 5000;
  ASSERT_TRUE(sc.run(first, sim, stop).interrupted);

  sprint::ScenarioNetwork second = sc.build(sc.seed());
  noc::CheckpointConfig resume;
  resume.restore_path = snap;
  const noc::SimResults r_resumed = sc.run(second, sim, resume);
  EXPECT_FALSE(r_resumed.interrupted);
  EXPECT_EQ(sc.report(second, r_resumed, sim.injection_rate, "").dump(),
            sc.report(whole, r_whole, sim.injection_rate, "").dump());
  std::remove(snap.c_str());
}

TEST(ScenarioDrift, RefusesWhatNoBuilderHonours) {
  const KeyValues refused[] = {
      {{"topology", "ring_circulant"}, {"scheme", "full"}},
      {{"topology", "hamming"}, {"faults", "true"}},
      {{"protocol", "true"}},  // one message class
      {{"ring_skip", "3"}},    // mesh: no chords
      {{"watchdog", "100"}},   // armed only with faults=true
      {{"topology", "file"}, {"topo_file", "x.topo"}, {"width", "8"}},
      {{"level", "17"}},
      {{"scheme", "fine"}},
      {{"classes", "3"}},  // 4 VCs do not split into 3 classes
      {{"faults", "true"}, {"fault_flip_rate", "2"}},
      {{"faults", "true"}, {"fault_stuck", "16"}},  // 4x4 ids end at 15
  };
  for (const KeyValues& kv : refused)
    EXPECT_THROW(sprint::Scenario::from_config(config_of(kv)),
                 std::invalid_argument)
        << config_of(kv).keys().front();
  EXPECT_NO_THROW(sprint::Scenario::from_config(
      config_of({{"classes", "2"}, {"protocol", "true"}})));
}

}  // namespace
}  // namespace nocs
