#include "noc/params.hpp"

#include <stdexcept>
#include <string>

#include "common/config.hpp"

namespace nocs::noc {

NetworkParams NetworkParams::from_config(const Config& cfg) {
  NetworkParams p;
  p.width = static_cast<int>(cfg.get_int("width", p.width));
  p.height = static_cast<int>(cfg.get_int("height", p.height));
  p.num_vcs = static_cast<int>(cfg.get_int("num_vcs", p.num_vcs));
  p.vc_depth = static_cast<int>(cfg.get_int("vc_depth", p.vc_depth));
  p.packet_length =
      static_cast<int>(cfg.get_int("packet_length", p.packet_length));
  p.flit_bytes = static_cast<int>(cfg.get_int("flit_bytes", p.flit_bytes));
  p.num_classes = static_cast<int>(cfg.get_int("classes", p.num_classes));
  p.pipeline_stages =
      static_cast<int>(cfg.get_int("pipeline", p.pipeline_stages));
  if (const char* why = p.problem())
    throw std::invalid_argument(std::string("network parameters need ") +
                                why);
  return p;
}

}  // namespace nocs::noc
