#pragma once
/// \file args.hpp
/// Minimal command-line flag parser for bench harnesses and examples.
///
/// Supports `--flag value`, `--flag=value` and boolean `--flag` forms.
/// Numeric lookups are strict: the whole value must parse (trailing
/// garbage like `10x` or `1.5.2` is rejected), it must fit the type, and
/// it must lie within the caller's permitted range — anything else is a
/// clear error on stderr naming the offending flag, then exit(2). Typos
/// silently becoming 0 (the `std::stoll` legacy) cost more debugging time
/// than a hard stop. For the same reason a program can call
/// `reject_unknown()` once it has read every flag it knows, so a typo or
/// a retired flag fails instead of quietly leaving a default in place.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pmpl {

/// Parses `--key value` / `--key=value` / bare `--key` flags from argv.
/// Positional arguments are ignored. Lookups fall back to defaults.
class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) continue;
      arg.remove_prefix(2);
      order_.emplace_back(arg.substr(0, arg.find('=')));
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[std::string(arg)] = argv[++i];
      } else {
        // Move-assigned: GCC 12 at -O3 flags assigning the literal itself
        // (a false -Wrestrict inside basic_string).
        flags_[std::string(arg)] = std::string("1");
      }
    }
  }

  bool has(const std::string& key) const { return find(key) != flags_.end(); }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = find(key);
    return it != flags_.end() ? it->second : fallback;
  }

  /// Strict integer flag: full-string parse, range-checked against
  /// [lo, hi]. Errors exit with a message naming the flag.
  std::int64_t get_i64(const std::string& key, std::int64_t fallback,
                       std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                       std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const {
    const auto it = find(key);
    if (it == flags_.end()) return fallback;
    const std::string& s = it->second;
    std::int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc::result_out_of_range)
      die(key, s, "integer out of range");
    if (ec != std::errc{} || end != s.data() + s.size() || s.empty())
      die(key, s, "not a valid integer");
    if (value < lo || value > hi) die(key, s, "value outside permitted range");
    return value;
  }

  /// Strict floating-point flag: full-string parse (rejects `1.5x`, empty,
  /// and non-finite values), range-checked against [lo, hi].
  double get_f64(const std::string& key, double fallback,
                 double lo = std::numeric_limits<double>::lowest(),
                 double hi = std::numeric_limits<double>::max()) const {
    const auto it = find(key);
    if (it == flags_.end()) return fallback;
    const std::string& s = it->second;
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc::result_out_of_range)
      die(key, s, "number out of range");
    if (ec != std::errc{} || end != s.data() + s.size() || s.empty())
      die(key, s, "not a valid number");
    if (!(value >= lo && value <= hi))  // also rejects NaN
      die(key, s, "value outside permitted range");
    return value;
  }

  /// Strict boolean flag: accepts 1/0, true/false, yes/no, on/off.
  bool get_bool(const std::string& key, bool fallback = false) const {
    const auto it = find(key);
    if (it == flags_.end()) return fallback;
    const std::string& s = it->second;
    if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
    if (s == "0" || s == "false" || s == "no" || s == "off") return false;
    die(key, s, "not a valid boolean (use 1/0, true/false, yes/no, on/off)");
  }

  /// Exits 2 naming the first flag, in argv order, that no lookup above
  /// has read. Call it after the program has looked up every flag it
  /// understands.
  void reject_unknown() const {
    for (const std::string& key : order_)
      if (read_.count(key) == 0) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
  }

 private:
  using Flags = std::map<std::string, std::string>;

  Flags::const_iterator find(const std::string& key) const {
    read_.insert(key);
    return flags_.find(key);
  }

  [[noreturn]] static void die(const std::string& key, const std::string& value,
                               const char* what) {
    std::fprintf(stderr, "error: flag --%s: %s: '%s'\n", key.c_str(), what,
                 value.c_str());
    std::exit(2);
  }

  Flags flags_;
  std::vector<std::string> order_;      // flag names as given, in argv order
  mutable std::set<std::string> read_;  // names some lookup has asked for
};

}  // namespace pmpl
