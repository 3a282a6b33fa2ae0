// Minimal flag parser shared by the epgc command-line tools.
//
// Flags are `--name value` pairs (or bare `--name` for booleans); anything
// else is a positional argument. A flag is known iff its `--name` appears in
// the tool's usage text (which ci/check_docs.py holds equal to the README
// flag list); any other flag exits 2 with the usage text, so typos never
// silently fall through to defaults.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/build_info.hpp"

namespace epg::cli {

class Args {
 public:
  /// `bool_flags` lists the flags that take no value.
  Args(int argc, char** argv, const std::set<std::string>& bool_flags,
       std::string usage)
      : usage_(std::move(usage)) {
    const std::set<std::string> known = usage_flags(usage_);
    for (int i = 1; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.push_back(std::move(token));
        continue;
      }
      token.erase(0, 2);
      if (token == "help") fail("");
      if (token == "version") {
        // Shared across every CLI: the result-schema revision is what keys
        // persisted results, so it is part of the user-visible identity.
        std::cout << version_line() << '\n';
        std::exit(0);
      }
      if (known.count(token) == 0) fail("unknown flag --" + token);
      if (bool_flags.count(token) > 0) {
        values_[token] = "1";
        continue;
      }
      if (i + 1 >= argc) fail("flag --" + token + " needs a value");
      values_[token] = argv[++i];
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name, std::string fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    try {
      return std::stoull(it->second);
    } catch (const std::exception&) {
      fail("flag --" + name + " needs an integer, got '" + it->second + "'");
    }
    return fallback;
  }

  double get_double(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    try {
      return std::stod(it->second);
    } catch (const std::exception&) {
      fail("flag --" + name + " needs a number, got '" + it->second + "'");
    }
    return fallback;
  }

  [[noreturn]] void fail(const std::string& message) const {
    if (!message.empty()) std::cerr << "error: " << message << "\n\n";
    std::cerr << usage_ << std::flush;
    std::exit(message.empty() ? 0 : 2);
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string usage_;

  /// Every `--name` token in `usage` (without the dashes), matched by the
  /// same pattern ci/check_docs.py reads `--help` with.
  static std::set<std::string> usage_flags(const std::string& usage) {
    static const std::regex flag("--([a-zA-Z][a-zA-Z0-9-]*)");
    std::set<std::string> flags;
    for (std::sregex_iterator it(usage.begin(), usage.end(), flag), end;
         it != end; ++it)
      flags.insert((*it)[1]);
    return flags;
  }
};

struct TcpAddress {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse `HOST:PORT` or a bare `PORT` (host 127.0.0.1). The port must be
/// all digits and at most 65535; anything else is nullopt.
inline std::optional<TcpAddress> parse_tcp_address(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  const std::string host =
      colon == std::string::npos ? "" : spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);  // npos + 1 == 0
  if (port.empty() || port.size() > 5 ||
      port.find_first_not_of("0123456789") != std::string::npos ||
      std::stoul(port) > 65535)
    return std::nullopt;
  return TcpAddress{host.empty() ? "127.0.0.1" : host,
                    static_cast<std::uint16_t>(std::stoul(port))};
}

/// The `--tcp` flag's address: nullopt when absent, exit 2 when malformed.
inline std::optional<TcpAddress> tcp_flag(const Args& args) {
  if (!args.has("tcp")) return std::nullopt;
  const std::string spec = args.get("tcp", "");
  const std::optional<TcpAddress> addr = parse_tcp_address(spec);
  if (!addr) args.fail("--tcp needs HOST:PORT or PORT, got '" + spec + "'");
  return addr;
}

}  // namespace epg::cli
