// Figure 2 — router power breakdown (dynamic vs leakage) across operating
// points (1.0 V, 2 GHz), (0.9 V, 1.5 GHz), (0.75 V, 1.0 GHz) at 45 nm.
//
// Paper setup: classic wormhole router, 128-bit flits, 2 VCs x 4 flits per
// input port, average injection 0.4 flits/cycle, estimated with DSENT.
// Expected shape: leakage is a significant share everywhere and its ratio
// *grows* as voltage/frequency scale down, exceeding dynamic power at the
// lowest point.
#include <cstdio>

#include "bench_util.hpp"
#include "power/router_power.hpp"

using namespace nocs;
using namespace nocs::power;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Figure 2: router power breakdown vs operating point",
                "wormhole router, 128-bit flits, 2 VCs x 4, inj 0.4 "
                "flits/cycle, 45 nm (DSENT-style model)",
                net);

  const double inj = cfg.get_double("injection", 0.4);
  const OperatingPoint points[] = {
      {1.0, 2.0e9}, {0.9, 1.5e9}, {0.75, 1.0e9}};

  Table t({"V", "f (GHz)", "buffer dyn (mW)", "xbar dyn (mW)",
           "arb dyn (mW)", "clock dyn (mW)", "leakage (mW)", "total (mW)",
           "leak share"});
  double first_share = 0.0, last_share = 0.0;
  for (const OperatingPoint& op : points) {
    RouterPowerParams rp;
    rp.num_ports = 5;
    rp.num_vcs = 2;
    rp.vc_depth = 4;
    rp.flit_bits = 128;
    rp.tech = TechNode::k45nm;
    rp.op = op;
    const RouterPowerModel model(rp);
    const RouterPowerBreakdown b = model.at_injection(inj);
    const double share = b.leakage / b.total();
    if (op.voltage == 1.0) first_share = share;
    last_share = share;
    t.add_row({Table::fmt(op.voltage, 2), Table::fmt(op.frequency / 1e9, 1),
               Table::fmt(b.buffer_dynamic * 1e3, 3),
               Table::fmt(b.crossbar_dynamic * 1e3, 3),
               Table::fmt(b.arbiter_dynamic * 1e3, 3),
               Table::fmt(b.clock_dynamic * 1e3, 3),
               Table::fmt(b.leakage * 1e3, 3), Table::fmt(b.total() * 1e3, 3),
               Table::pct(share)});
  }
  t.print();

  bench::headline(
      "leakage share grows as V/f scale down",
      "significant at (1.0V,2GHz), exceeds dynamic in some cases",
      Table::pct(first_share) + " -> " + Table::pct(last_share) +
          (last_share > 0.5 ? " (exceeds dynamic)" : ""));
  return 0;
}
