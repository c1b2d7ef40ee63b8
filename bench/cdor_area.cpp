// Section 3.2 — CDOR area overhead.
//
// Paper result: behavioral Verilog synthesized with Design Compiler at
// 45 nm shows CDOR adds < 2 % area over a conventional DOR switch.  Our
// gate-equivalent model reproduces the bound (and shows the overhead is
// buffer-dominated-switch small).
#include <cstdio>

#include "bench_util.hpp"
#include "sprint/area.hpp"

using namespace nocs;
using namespace nocs::sprint;

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = noc::NetworkParams::from_config(cfg);
  bench::banner("Section 3.2: CDOR routing-logic area overhead",
                "gate-equivalent model standing in for Design Compiler "
                "synthesis at 45 nm",
                net);

  Table t({"configuration", "buffers", "crossbar", "allocators", "DOR logic",
           "CDOR extra", "overhead"});
  double paper_config_overhead = 0.0;
  struct Cfg { const char* name; int vcs; int depth; int bits; };
  const Cfg cfgs[] = {
      {"2 VCs x 4, 128-bit (Fig.2 router)", 2, 4, 128},
      {"4 VCs x 4, 128-bit (Table 1)", 4, 4, 128},
      {"2 VCs x 2, 64-bit (lean switch)", 2, 2, 64},
      {"1 VC x 2, 32-bit (minimal switch)", 1, 2, 32},
  };
  for (const Cfg& c : cfgs) {
    RouterAreaParams p;
    p.num_vcs = c.vcs;
    p.vc_depth = c.depth;
    p.flit_bits = c.bits;
    const AreaEstimate a = estimate_router_area(p);
    if (c.vcs == 4) paper_config_overhead = a.overhead();
    t.add_row({c.name, Table::fmt(a.buffers, 0), Table::fmt(a.crossbar, 0),
               Table::fmt(a.allocators, 0), Table::fmt(a.routing_dor, 0),
               Table::fmt(a.routing_cdor_extra, 0),
               Table::pct(a.overhead(), 3)});
  }
  t.print();

  bench::headline("CDOR area overhead vs DOR switch (Table 1 config)",
                  "< 2%", Table::pct(paper_config_overhead, 3));
  return 0;
}
