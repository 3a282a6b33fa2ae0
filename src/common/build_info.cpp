#include "common/build_info.hpp"

namespace epg {

const BuildInfo& build_info() {
  // proto 1.3: the cluster front's `metrics` response carries its own
  // registry under "front" (additive — minors are never rejected).
  static const BuildInfo info{"0.6.0", 1, 1, 3};
  return info;
}

std::string proto_string() {
  const BuildInfo& info = build_info();
  return std::to_string(info.proto_major) + "." +
         std::to_string(info.proto_minor);
}

std::string version_line() {
  const BuildInfo& info = build_info();
  return std::string("epgc ") + info.version + " (result-schema " +
         std::to_string(info.result_schema) + ", proto " + proto_string() +
         ")";
}

}  // namespace epg
