// Shared helpers for the figure-regeneration benches.
//
// Every bench binary regenerates one table/figure of the paper: it prints
// the Table 1 configuration banner, the reproduced rows, and the headline
// aggregate the paper quotes, so `for b in build/bench/*; do $b; done`
// emits a complete experiment log.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "noc/params.hpp"

namespace nocs::bench {

/// Parses key=value overrides from argv, tolerating none.
inline Config parse_config(int argc, char** argv) {
  return Config::from_args(argc, argv);
}

/// Writes a structured run report to the path given by the `report=`
/// config key; a silent no-op when the key is unset.  The standard way
/// for a bench to expose its table as machine-readable JSON.
inline bool maybe_write_report(const Config& cfg, json::Value doc) {
  const std::string path = cfg.get_string("report", "");
  if (path.empty()) return false;
  if (!json::write_file(path, doc)) return false;
  std::printf("report written to %s\n", path.c_str());
  return true;
}

/// Serializes the Table 1 network configuration (for report headers).
inline json::Value to_json(const noc::NetworkParams& p) {
  json::Value o = json::Value::object();
  o.set("width", p.width);
  o.set("height", p.height);
  o.set("num_vcs", p.num_vcs);
  o.set("vc_depth", p.vc_depth);
  o.set("packet_length", p.packet_length);
  o.set("flit_bytes", p.flit_bytes);
  return o;
}

/// Prints the experiment banner: which figure, what configuration.
inline void banner(const char* experiment, const char* summary,
                   const noc::NetworkParams& p) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, summary);
  std::printf(
      "config: %dx%d mesh, %d VCs x %d flits, %d-flit packets, %d-byte "
      "flits (Table 1)\n",
      p.width, p.height, p.num_vcs, p.vc_depth, p.packet_length,
      p.flit_bytes);
  std::printf("==============================================================\n");
}

/// Prints a "paper vs measured" headline line.
inline void headline(const std::string& what, const std::string& paper,
                     const std::string& measured) {
  std::printf("\n>> %s: paper = %s, measured = %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

}  // namespace nocs::bench
