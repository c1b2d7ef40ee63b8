// Figure 11 — synthetic uniform-random load sweep for 4-core and 8-core
// sprinting on the 16-node mesh.
//
// Full-sprinting maps the k endpoints randomly over the fully powered
// mesh (averaged over ten samples, as in the paper); NoC-sprinting uses
// the convex region with CDOR and a gated dark region.  Paper results:
// pre-saturation latency cut 45.1 % (4-core) / 16.1 % (8-core), network
// power cut 62.1 % / 25.9 %, and NoC-sprinting saturates earlier because
// it concentrates the same traffic on fewer links.
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "common/batch.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "noc/simulator.hpp"
#include "power/noc_power.hpp"
#include "sprint/network_builder.hpp"

using namespace nocs;

namespace {

struct Point {
  double rate;
  double noc_lat = 0.0, full_lat = 0.0;
  double noc_pow = 0.0, full_pow = 0.0;
  bool noc_sat = false, full_sat = false;
};

/// One simulation's contribution to the tables, and its manifest payload
/// (doubles round-trip bit-exactly through the JSON layer).
struct Sample {
  double lat = 0.0;
  double pow = 0.0;
  bool sat = false;
};

json::Value to_json(const Sample& s) {
  json::Value o = json::Value::object();
  o.set("lat", s.lat);
  o.set("pow", s.pow);
  o.set("sat", s.sat);
  return o;
}

Sample sample_from_json(const json::Value& v) {
  return {v.at("lat").as_number(), v.at("pow").as_number(),
          v.at("sat").as_bool()};
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Figure 11: synthetic uniform-random load sweep",
                "4-core and 8-core sprinting; full-sprinting averaged over "
                "10 random endpoint mappings",
                net);

  const int samples = static_cast<int>(cfg.get_int("samples", 10));
  const std::uint64_t seed = cfg.get_int("seed", 11);
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  const std::vector<double> rates = {0.02, 0.05, 0.10, 0.15, 0.20, 0.25,
                                     0.30, 0.35, 0.40, 0.50, 0.60, 0.70};

  // checkpoint= names a manifest file recording every finished (level,
  // rate, mapping) simulation, so an interrupted sweep resumes from the
  // last completed task (see docs/SNAPSHOT_FORMAT.md).
  snapshot::TaskManifest manifest(
      cfg.get_string("checkpoint", ""),
      "fig11:rates=" + std::to_string(rates.size()) +
          ";samples=" + std::to_string(samples) +
          ";seed=" + std::to_string(seed) + ";mesh=" +
          std::to_string(net.width) + "x" + std::to_string(net.height));
  const std::vector<int> sprint_levels = {4, 8};
  const std::size_t tasks_per_rate = 1 + static_cast<std::size_t>(samples);
  const std::size_t tasks_per_level = rates.size() * tasks_per_rate;

  const power::NocPowerModels power_models(net);

  noc::SimConfig sim;
  sim.warmup = 2000;
  sim.measure = 8000;
  sim.drain_max = 40000;

  // Every (level, rate, mapping) simulation is an independent task,
  // indexed level-major / rate-major / mapping-minor.  Mapping 0 is the
  // NoC-sprinting point (deterministic convex region); mapping 1 + s is
  // the s-th full-sprinting random endpoint mapping.  Seeds match the
  // serial loop, so the tables below are identical for any thread count.
  std::vector<Sample> done(sprint_levels.size() * tasks_per_level);
  run_batch(
      done.size(),
      [&](std::size_t t) -> std::optional<json::Value> {
        const int level = sprint_levels[t / tasks_per_level];
        const std::size_t mapping = t % tasks_per_level % tasks_per_rate;
        noc::SimConfig point_sim = sim;
        point_sim.injection_rate = rates[t % tasks_per_level / tasks_per_rate];
        auto b = mapping == 0 ? sprint::make_noc_sprinting_network(
                                    net, level, "uniform", seed)
                              : sprint::make_full_sprinting_network(
                                    net, level, "uniform", seed + mapping - 1);
        const noc::SimResults r = noc::run_simulation(*b.network, point_sim);
        done[t] = {r.avg_packet_latency,
                   power_models.estimate(*b.network, r.cycles).total(),
                   r.saturated};
        return to_json(done[t]);
      },
      [&](std::size_t t, const json::Value& v) {
        done[t] = sample_from_json(v);
      },
      &manifest, threads);

  json::Value levels = json::Value::array();
  std::size_t level_base = 0;
  for (int level : sprint_levels) {
    // Full-sprinting averages fold in mapping order, as the serial loop did.
    std::vector<Point> points(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const Sample* task = &done[level_base + i * tasks_per_rate];
      RunningStat lat, pow;
      int saturated = 0;
      for (int s = 1; s <= samples; ++s) {
        lat.add(task[s].lat);
        pow.add(task[s].pow);
        saturated += task[s].sat ? 1 : 0;
      }
      points[i] = {rates[i],     task[0].lat, lat.mean(),
                   task[0].pow,  pow.mean(),  task[0].sat,
                   saturated > samples / 2};
    }
    level_base += tasks_per_level;

    std::printf("\n--- %d-core sprinting ---\n", level);
    Table t({"inj rate", "noc lat (cyc)", "full lat (cyc)", "lat cut",
             "noc power (mW)", "full power (mW)", "power cut", "sat"});
    std::vector<double> lat_cuts, pow_cuts;
    // Pre-saturation = latency still within 3x of the zero-load latency
    // for BOTH schemes (matching the paper's "before saturation" framing).
    const double noc_zero = points.front().noc_lat;
    const double full_zero = points.front().full_lat;
    json::Value point_rows = json::Value::array();
    for (const Point& pt : points) {
      const bool presat = !pt.noc_sat && !pt.full_sat &&
                          pt.noc_lat < 3.0 * noc_zero &&
                          pt.full_lat < 3.0 * full_zero;
      if (presat) {
        lat_cuts.push_back(1.0 - pt.noc_lat / pt.full_lat);
        pow_cuts.push_back(1.0 - pt.noc_pow / pt.full_pow);
      }
      json::Value row = json::Value::object();
      row.set("injection_rate", pt.rate);
      row.set("noc_latency", pt.noc_lat);
      row.set("full_latency", pt.full_lat);
      row.set("noc_power_w", pt.noc_pow);
      row.set("full_power_w", pt.full_pow);
      row.set("noc_saturated", pt.noc_sat);
      row.set("full_saturated", pt.full_sat);
      row.set("pre_saturation", presat);
      point_rows.push_back(std::move(row));
      std::string sat = pt.noc_sat ? (pt.full_sat ? "both" : "noc") :
                                     (pt.full_sat ? "full" : "-");
      t.add_row({Table::fmt(pt.rate, 2),
                 pt.noc_sat ? "sat" : Table::fmt(pt.noc_lat, 2),
                 pt.full_sat ? "sat" : Table::fmt(pt.full_lat, 2),
                 presat ? Table::pct(lat_cuts.back()) : "-",
                 Table::fmt(pt.noc_pow * 1e3, 2),
                 Table::fmt(pt.full_pow * 1e3, 2),
                 presat ? Table::pct(pow_cuts.back()) : "-", sat});
    }
    t.print();

    const char* paper_lat = level == 4 ? "45.1%" : "16.1%";
    const char* paper_pow = level == 4 ? "62.1%" : "25.9%";
    bench::headline(
        std::string("pre-saturation averages (") + std::to_string(level) +
            "-core)",
        std::string("latency cut ") + paper_lat + ", power cut " + paper_pow,
        "latency cut " + Table::pct(arithmetic_mean(lat_cuts)) +
            ", power cut " + Table::pct(arithmetic_mean(pow_cuts)));

    json::Value lv = json::Value::object();
    lv.set("level", level);
    lv.set("points", std::move(point_rows));
    lv.set("avg_presat_latency_cut", arithmetic_mean(lat_cuts));
    lv.set("avg_presat_power_cut", arithmetic_mean(pow_cuts));
    levels.push_back(std::move(lv));
  }

  json::Value doc = json::Value::object();
  doc.set("figure", "fig11_synthetic");
  doc.set("config", bench::to_json(net));
  doc.set("seed", static_cast<std::uint64_t>(seed));
  doc.set("samples", samples);
  doc.set("levels", std::move(levels));
  bench::maybe_write_report(cfg, std::move(doc));

  std::printf(
      "\nnote: NoC-sprinting saturates at lower offered load than "
      "full-sprinting (fewer links carry the same traffic) — harmless in "
      "practice, PARSEC injection stays below 0.3 flits/cycle.\n");
  return 0;
}
