#include "sprint/cosim.hpp"

#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "sprint/network_builder.hpp"

namespace nocs::sprint {

CosimResult cosimulate(const noc::NetworkParams& params,
                       const cmp::WorkloadParams& workload,
                       const cmp::PerfModel& perf, const CosimConfig& cfg) {
  CosimResult out;
  out.level = perf.optimal_level(workload);
  const int sim_level = out.level < 2 ? 2 : out.level;

  noc::SimConfig sim;
  sim.warmup = cfg.warmup;
  sim.measure = cfg.measure;
  sim.injection_rate = workload.injection_rate;

  const power::NocPowerModels power_models(params, cfg.link_length_mm);

  // The two configurations are independent simulations (own network, own
  // seed); run them as parallel tasks writing disjoint result fields.
  run_tasks(
      {[&] {
         const trace::HostScope span("cosim full " + workload.name, "cosim");
         NetworkBundle full = make_full_sprinting_network(
             params, params.num_nodes(), "uniform", cfg.seed);
         const noc::SimResults r = noc::run_simulation(*full.network, sim);
         out.full_latency = r.avg_packet_latency;
         out.full_saturated = r.saturated;
         out.full_noc_power =
             power_models.estimate(*full.network, r.cycles).total();
       },
       [&] {
         const trace::HostScope span("cosim noc " + workload.name, "cosim");
         NetworkBundle sprint_net = make_noc_sprinting_network(
             params, sim_level, "uniform", cfg.seed);
         const noc::SimResults r =
             noc::run_simulation(*sprint_net.network, sim);
         out.noc_latency = r.avg_packet_latency;
         out.noc_saturated = r.saturated;
         out.noc_noc_power =
             power_models.estimate(*sprint_net.network, r.cycles).total();
       }},
      cfg.num_threads);

  // Feedback: full-sprinting's measured latency is the reference (the
  // off-line profiling ran with the whole network powered), so its
  // adjusted time equals the base model; the sprint region's shorter
  // latency speeds the parallel portion up through comm_gamma.
  out.exec_full = perf.exec_time(workload, params.num_nodes(),
                                 out.full_latency, out.full_latency);
  out.exec_noc = perf.exec_time(workload, out.level, out.noc_latency,
                                out.full_latency);
  return out;
}

json::Value to_json(const CosimResult& r) {
  json::Value o = json::Value::object();
  o.set("level", r.level);
  o.set("full_latency", r.full_latency);
  o.set("full_noc_power", r.full_noc_power);
  o.set("full_saturated", r.full_saturated);
  o.set("noc_latency", r.noc_latency);
  o.set("noc_noc_power", r.noc_noc_power);
  o.set("noc_saturated", r.noc_saturated);
  o.set("exec_full", r.exec_full);
  o.set("exec_noc", r.exec_noc);
  return o;
}

}  // namespace nocs::sprint
