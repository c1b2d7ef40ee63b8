#include "sprint/scenario.hpp"

#include <cstdio>
#include <stdexcept>

#include "noc/traffic.hpp"

namespace nocs::sprint {

namespace {

/// A key that only means something next to another one is refused, not
/// read and silently ignored.
void refuse_unless(const Config& cfg, bool applies, const char* key,
                   const char* needs) {
  if (!applies && cfg.has(key))
    throw std::invalid_argument(std::string(key) + "= needs " + needs);
}

/// A 64-bit fingerprint as 16 lowercase hex digits: a JSON number is a
/// double and would drop its low bits.
std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Scenario Scenario::from_config(const Config& cfg) {
  Scenario s;
  s.params_ = noc::NetworkParams::from_config(cfg);

  const std::string kind = cfg.get_string("topology", "mesh");
  refuse_unless(cfg, kind == "ring_circulant", "ring_skip",
                "topology=ring_circulant");
  refuse_unless(cfg, kind == "file", "topo_file", "topology=file");
  for (const char* key : {"width", "height"})
    refuse_unless(cfg, kind != "file", key, "a generated topology");
  if (kind == "file") {
    s.topology_ = noc::Topology::from_file(cfg.get_string("topo_file", ""));
  } else if (kind != "mesh") {
    const int skip = kind == "ring_circulant"
                         ? static_cast<int>(cfg.get_int("ring_skip", 4))
                         : 0;
    s.topology_ = noc::Topology::make(kind, s.params_.width,
                                      s.params_.height, skip);
  }
  if (s.topology_) {
    // Only num_nodes() matters off the mesh.
    s.params_.width = s.topology_->num_nodes();
    s.params_.height = 1;
    if (const char* why = s.params_.problem())
      throw std::invalid_argument(std::string("topology needs ") + why);
  }

  s.level_ = static_cast<int>(cfg.get_int("level", s.level_));
  if (s.level_ < 2 || s.level_ > s.params_.num_nodes())
    throw std::invalid_argument(
        "level=" + std::to_string(s.level_) + " must be in [2, " +
        std::to_string(s.params_.num_nodes()) + "]");
  s.traffic_ = cfg.get_string("traffic", s.traffic_);
  (void)noc::make_traffic(s.traffic_, s.level_);  // throws on a bad name
  s.seed_ = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  const std::string scheme = cfg.get_string("scheme", "noc");
  if (scheme != "noc" && scheme != "full")
    throw std::invalid_argument("scheme=" + scheme + " (expected noc|full)");
  s.full_ = scheme == "full";
  s.protocol_ = cfg.get_bool("protocol", false);
  s.sim_threads_ = static_cast<int>(cfg.get_int("sim_threads", 0));
  s.faults_ = fault::FaultParams::from_config(cfg);
  refuse_unless(cfg, s.faults_.enabled, "watchdog", "faults=true");
  if (s.faults_.enabled)
    s.watchdog_ = static_cast<Cycle>(cfg.get_int("watchdog", 50000));

  if (s.topology_ && s.full_)
    throw std::invalid_argument("scheme=full needs topology=mesh");
  if (s.topology_ && s.faults_.enabled)
    throw std::invalid_argument("faults=true needs topology=mesh");
  for (NodeId id : s.faults_.stuck)
    if (s.faults_.enabled && !s.params_.shape().valid(id))
      throw std::invalid_argument("fault_stuck node " + std::to_string(id) +
                                  " is not on the mesh");
  if (s.protocol_ && s.params_.num_classes < 2)
    throw std::invalid_argument("protocol=true needs classes=2 or more");
  return s;
}

ScenarioNetwork Scenario::build(std::uint64_t seed) const {
  ScenarioNetwork n;
  if (topology_)
    n.bundle = make_topology_sprinting_network(params_, *topology_, level_,
                                               traffic_, seed);
  else if (full_)
    n.bundle = make_full_sprinting_network(params_, level_, traffic_, seed);
  else
    n.bundle = make_noc_sprinting_network(params_, level_, traffic_, seed);
  noc::Network& net = *n.bundle.network;
  if (protocol_) net.set_request_reply(1, 5);
  // 0 defers to NOCS_SIM_THREADS, else serial; results are bit-identical
  // for any value.
  net.set_sim_threads(sim_threads_);
  if (faults_.enabled) {
    n.injector =
        std::make_unique<fault::FaultInjector>(params_.shape(), faults_);
    const noc::ProtectionParams prot = faults_.protection();
    net.enable_resilience(n.injector.get(), &prot);
  }
  return n;
}

noc::SimResults Scenario::run(ScenarioNetwork& net, noc::SimConfig sim,
                              noc::CheckpointConfig ckpt) const {
  if (net.injector != nullptr) {
    sim.watchdog_cycles = watchdog_;
    // The fault RNG streams are simulation state: they ride along in the
    // same snapshot.
    ckpt.extras.emplace_back("fault", net.injector.get());
  }
  return noc::run_simulation(*net.bundle.network, sim, ckpt);
}

power::NocPowerEstimate Scenario::power(const ScenarioNetwork& net,
                                        const noc::SimResults& r) const {
  return power::NocPowerModels(params_).estimate(*net.bundle.network,
                                                 r.cycles);
}

json::Value Scenario::report(const ScenarioNetwork& net,
                             const noc::SimResults& r, double injection_rate,
                             const std::string& mode) const {
  json::Value doc = noc::to_json(r);
  if (!mode.empty()) doc.set("mode", mode);
  doc.set("scheme", full_ ? "full" : "noc");
  doc.set("level", level_);
  doc.set("traffic", traffic_);
  doc.set("injection_rate", injection_rate);
  doc.set("seed", seed_);
  const power::NocPowerEstimate est = power(net, r);
  json::Value pw = json::Value::object();
  pw.set("total_mw", est.total() * 1e3);
  pw.set("routers_mw", est.routers.total() * 1e3);
  pw.set("links_mw", (est.link_dynamic + est.link_leakage) * 1e3);
  doc.set("power", std::move(pw));
  if (topology_) {
    doc.set("topology", topology_->kind());
    doc.set("topology_fingerprint", hex64(topology_->fingerprint()));
    doc.set("deadlock_channels", net.bundle.deadlock.channels_used);
    doc.set("deadlock_dependencies", net.bundle.deadlock.dependencies);
  }
  return doc;
}

json::Value Scenario::sweep_report(const std::string& tag_key,
                                   json::Value points) const {
  json::Value doc = json::Value::object();
  doc.set(tag_key, "sweep");
  doc.set("level", level_);
  doc.set("traffic", traffic_);
  doc.set("seed", seed_);
  if (topology_) {
    doc.set("topology", topology_->kind());
    doc.set("topology_fingerprint", hex64(topology_->fingerprint()));
  }
  doc.set("points", std::move(points));
  return doc;
}

json::Value Scenario::point_report(const noc::SimResults& r,
                                   double injection_rate) {
  json::Value p = noc::to_json(r);
  p.set("injection_rate", injection_rate);
  return p;
}

noc::SimConfig simulate_window(const Config& cfg) {
  noc::SimConfig sim;
  sim.warmup = cfg.get_int("warmup", 2000);
  sim.measure = cfg.get_int("measure", 10000);
  sim.injection_rate = cfg.get_double("injection", 0.1);
  return sim;
}

noc::SimConfig sweep_window() {
  noc::SimConfig sim;
  sim.warmup = 1000;
  sim.measure = 6000;
  return sim;
}

std::vector<double> parse_rates(const std::string& spec) {
  constexpr std::size_t kMaxPoints = 4096;
  double start = 0, step = 0, end = 0;
  if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &start, &step, &end) != 3)
    throw std::invalid_argument("rates must be start:step:end");
  if (!(step > 0) || !(start > 0) || end < start)
    throw std::invalid_argument(
        "rates must satisfy start > 0, step > 0, end >= start");
  std::vector<double> rates;
  for (double r = start; r <= end + 1e-12; r += step) {
    rates.push_back(r);
    if (rates.size() > kMaxPoints)
      throw std::invalid_argument("rates expand to too many points");
  }
  return rates;
}

}  // namespace nocs::sprint
