#include "common/build_info.hpp"

namespace epg {

const BuildInfo& build_info() {
  // result-schema 2: compiles stop on work budgets instead of wall
  // budgets, so entries of the budget-lifting mode must not be replayed.
  // proto 1.4: the compile spec lost "budget_ms" (a request carrying it is
  // still accepted; the member is ignored like any unknown one).
  static const BuildInfo info{"0.6.0", 2, 1, 4};
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
