#include "runtime/fault_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/json_mini.hpp"

namespace pmpl::runtime {

namespace {

using pmpl::json::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Validation context: accumulates the first error as "<path>: <what>".
struct Check {
  std::string& error;
  bool failed = false;

  bool fail(const std::string& path, const std::string& what) {
    if (!failed) error = path + ": " + what;
    failed = true;
    return false;
  }
};

bool known_keys(Check& ck, const Value& obj, const std::string& path,
                std::initializer_list<const char*> keys) {
  for (const auto& [key, value] : obj.as_object()) {
    bool known = false;
    for (const char* k : keys) known = known || key == k;
    if (!known) return ck.fail(path + "." + key, "unknown field");
  }
  return true;
}

/// Required-or-defaulted finite number with a range. `lo`/`hi` inclusive.
bool get_number(Check& ck, const Value& obj, const std::string& path,
                const char* key, bool required, double def, double lo,
                double hi, double& out) {
  const Value* v = obj.find(key);
  if (!v) {
    if (required) return ck.fail(path + "." + key, "required field missing");
    out = def;
    return true;
  }
  if (!v->is_number() || std::isnan(v->as_number()))
    return ck.fail(path + "." + key, "must be a number");
  const double x = v->as_number();
  if (x < lo || x > hi) {
    std::ostringstream what;
    what << "must be in [" << lo << ", "
         << (hi == kInf ? std::string("inf") : std::to_string(hi)) << "]";
    return ck.fail(path + "." + key, what.str());
  }
  out = x;
  return true;
}

bool get_rank(Check& ck, const Value& obj, const std::string& path,
              const char* key, bool wildcard_ok, std::uint32_t def,
              bool required, std::uint32_t& out) {
  const Value* v = obj.find(key);
  if (!v) {
    if (required) return ck.fail(path + "." + key, "required field missing");
    out = def;
    return true;
  }
  if (wildcard_ok && v->is_string()) {
    if (v->as_string() != "any")
      return ck.fail(path + "." + key, "rank string must be \"any\"");
    out = kAnyRank;
    return true;
  }
  if (!v->is_number() || v->as_number() < 0.0 ||
      v->as_number() != std::floor(v->as_number()) ||
      v->as_number() >= static_cast<double>(kAnyRank))
    return ck.fail(path + "." + key,
                   wildcard_ok ? "must be a non-negative integer or \"any\""
                               : "must be a non-negative integer");
  out = static_cast<std::uint32_t>(v->as_number());
  return true;
}

/// [from_s, until_s) window shared by stragglers, links and tokens.
bool get_window(Check& ck, const Value& obj, const std::string& path,
                double& from_s, double& until_s) {
  if (!get_number(ck, obj, path, "from_s", false, 0.0, 0.0, kInf, from_s))
    return false;
  if (!get_number(ck, obj, path, "until_s", false, kInf, 0.0, kInf, until_s))
    return false;
  if (until_s <= from_s)
    return ck.fail(path + ".until_s", "must be greater than from_s");
  return true;
}

/// Fetch `key` as an array of objects; absent means empty.
bool get_entries(Check& ck, const Value& root, const char* key,
                 const Value*& out) {
  out = root.find(key);
  if (!out) return true;
  if (!out->is_array()) return ck.fail(key, "must be an array");
  std::size_t i = 0;
  for (const Value& entry : out->as_array()) {
    if (!entry.is_object())
      return ck.fail(std::string(key) + "[" + std::to_string(i) + "]",
                     "must be an object");
    ++i;
  }
  return true;
}

std::string item_path(const char* key, std::size_t i) {
  return std::string(key) + "[" + std::to_string(i) + "]";
}

void put_number(std::ostringstream& out, const char* key, double v,
                bool* first) {
  if (!*first) out << ", ";
  *first = false;
  out << '"' << key << "\": ";
  if (v == kInf) {
    out << 1e308;  // parses back as a huge finite; effectively unbounded
  } else {
    out.precision(17);
    out << v;
  }
}

void put_rank(std::ostringstream& out, const char* key, std::uint32_t r,
              bool* first) {
  if (!*first) out << ", ";
  *first = false;
  out << '"' << key << "\": ";
  if (r == kAnyRank)
    out << "\"any\"";
  else
    out << r;
}

}  // namespace

bool parse_fault_plan(const std::string& text, FaultPlan& out,
                      std::string& error) {
  Value root;
  if (!pmpl::json::parse(text, root, &error)) return false;
  Check ck{error};
  if (!root.is_object()) return ck.fail("(root)", "must be an object");
  if (!known_keys(ck, root, "(root)",
                  {"seed", "crashes", "stragglers", "links", "tokens",
                   "pauses", "partitions"}))
    return false;

  FaultPlan plan;
  if (const Value* seed = root.find("seed")) {
    // Numbers are doubles, exact only below 2^53; the writer spells the
    // seed as a string of decimal digits so every 64-bit seed round-trips.
    bool ok = false;
    if (seed->is_string()) {
      const std::string& s = seed->as_string();
      const auto [end, ec] =
          std::from_chars(s.data(), s.data() + s.size(), plan.seed);
      ok = ec == std::errc() && end == s.data() + s.size();
    } else if (seed->is_number()) {
      const double v = seed->as_number();
      ok = v >= 0.0 && v == std::floor(v) && v < 0x1p64;
      if (ok) plan.seed = static_cast<std::uint64_t>(v);
    }
    if (!ok)
      return ck.fail("seed",
                     "must be a non-negative 64-bit integer (a number or a "
                     "string of decimal digits)");
  }

  const Value* entries = nullptr;
  if (!get_entries(ck, root, "crashes", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("crashes", i++);
      CrashFault c;
      if (!known_keys(ck, e, path, {"rank", "at_s"})) return false;
      if (!get_rank(ck, e, path, "rank", false, 0, true, c.rank))
        return false;
      if (!get_number(ck, e, path, "at_s", true, 0.0, 0.0, kInf, c.at_s))
        return false;
      plan.crashes.push_back(c);
    }
  }

  if (!get_entries(ck, root, "stragglers", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("stragglers", i++);
      StragglerFault s;
      if (!known_keys(ck, e, path, {"rank", "slowdown", "from_s", "until_s"}))
        return false;
      if (!get_rank(ck, e, path, "rank", false, 0, true, s.rank))
        return false;
      if (!get_number(ck, e, path, "slowdown", true, 1.0, 1.0, kInf,
                      s.slowdown))
        return false;
      if (!get_window(ck, e, path, s.from_s, s.until_s)) return false;
      plan.stragglers.push_back(s);
    }
  }

  if (!get_entries(ck, root, "links", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("links", i++);
      LinkFault l;
      if (!known_keys(ck, e, path,
                      {"from", "to", "drop_prob", "extra_delay_s", "from_s",
                       "until_s"}))
        return false;
      if (!get_rank(ck, e, path, "from", true, kAnyRank, false, l.from))
        return false;
      if (!get_rank(ck, e, path, "to", true, kAnyRank, false, l.to))
        return false;
      if (!get_number(ck, e, path, "drop_prob", false, 0.0, 0.0, 1.0,
                      l.drop_prob))
        return false;
      if (!get_number(ck, e, path, "extra_delay_s", false, 0.0, 0.0, kInf,
                      l.extra_delay_s))
        return false;
      if (!get_window(ck, e, path, l.from_s, l.until_s)) return false;
      if (l.drop_prob == 0.0 && l.extra_delay_s == 0.0)
        return ck.fail(path, "must set drop_prob or extra_delay_s");
      plan.links.push_back(l);
    }
  }

  if (!get_entries(ck, root, "tokens", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("tokens", i++);
      TokenFault t;
      if (!known_keys(ck, e, path, {"drop_prob", "from_s", "until_s"}))
        return false;
      if (!get_number(ck, e, path, "drop_prob", true, 0.0, 0.0, 1.0,
                      t.drop_prob))
        return false;
      if (!get_window(ck, e, path, t.from_s, t.until_s)) return false;
      plan.tokens.push_back(t);
    }
  }

  if (!get_entries(ck, root, "pauses", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("pauses", i++);
      PauseFault p;
      if (!known_keys(ck, e, path, {"rank", "from_s", "until_s"}))
        return false;
      if (!get_rank(ck, e, path, "rank", false, 0, true, p.rank))
        return false;
      if (!get_window(ck, e, path, p.from_s, p.until_s)) return false;
      plan.pauses.push_back(p);
    }
  }

  if (!get_entries(ck, root, "partitions", entries)) return false;
  if (entries) {
    std::size_t i = 0;
    for (const Value& e : entries->as_array()) {
      const std::string path = item_path("partitions", i++);
      PartitionFault p;
      if (!known_keys(ck, e, path, {"ranks", "from_s", "until_s"}))
        return false;
      const Value* ranks = e.find("ranks");
      if (!ranks || !ranks->is_array() || ranks->as_array().empty())
        return ck.fail(path + ".ranks", "must be a non-empty array of ranks");
      std::size_t j = 0;
      for (const Value& r : ranks->as_array()) {
        const std::string rp = path + ".ranks[" + std::to_string(j++) + "]";
        if (!r.is_number() || r.as_number() < 0.0 ||
            r.as_number() != std::floor(r.as_number()) ||
            r.as_number() >= static_cast<double>(kAnyRank))
          return ck.fail(rp, "must be a non-negative integer");
        p.ranks.push_back(static_cast<std::uint32_t>(r.as_number()));
      }
      if (!get_window(ck, e, path, p.from_s, p.until_s)) return false;
      plan.partitions.push_back(p);
    }
  }

  out = std::move(plan);
  return true;
}

bool load_fault_plan(const std::string& path, FaultPlan& out,
                     std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    error = "read error on " + path;
    return false;
  }
  if (!parse_fault_plan(text, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::ostringstream out;
  out << "{\"seed\": \"" << plan.seed << '"';
  out << ", \"crashes\": [";
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const CrashFault& c = plan.crashes[i];
    bool first = true;
    out << (i ? ", {" : "{");
    put_rank(out, "rank", c.rank, &first);
    put_number(out, "at_s", c.at_s, &first);
    out << '}';
  }
  out << "], \"stragglers\": [";
  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const StragglerFault& s = plan.stragglers[i];
    bool first = true;
    out << (i ? ", {" : "{");
    put_rank(out, "rank", s.rank, &first);
    put_number(out, "slowdown", s.slowdown, &first);
    put_number(out, "from_s", s.from_s, &first);
    put_number(out, "until_s", s.until_s, &first);
    out << '}';
  }
  out << "], \"links\": [";
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const LinkFault& l = plan.links[i];
    bool first = true;
    out << (i ? ", {" : "{");
    put_rank(out, "from", l.from, &first);
    put_rank(out, "to", l.to, &first);
    put_number(out, "drop_prob", l.drop_prob, &first);
    put_number(out, "extra_delay_s", l.extra_delay_s, &first);
    put_number(out, "from_s", l.from_s, &first);
    put_number(out, "until_s", l.until_s, &first);
    out << '}';
  }
  out << "], \"tokens\": [";
  for (std::size_t i = 0; i < plan.tokens.size(); ++i) {
    const TokenFault& t = plan.tokens[i];
    bool first = true;
    out << (i ? ", {" : "{");
    put_number(out, "drop_prob", t.drop_prob, &first);
    put_number(out, "from_s", t.from_s, &first);
    put_number(out, "until_s", t.until_s, &first);
    out << '}';
  }
  out << "], \"pauses\": [";
  for (std::size_t i = 0; i < plan.pauses.size(); ++i) {
    const PauseFault& p = plan.pauses[i];
    bool first = true;
    out << (i ? ", {" : "{");
    put_rank(out, "rank", p.rank, &first);
    put_number(out, "from_s", p.from_s, &first);
    put_number(out, "until_s", p.until_s, &first);
    out << '}';
  }
  out << "], \"partitions\": [";
  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    const PartitionFault& p = plan.partitions[i];
    bool first = true;
    out << (i ? ", {" : "{");
    out << "\"ranks\": [";
    for (std::size_t j = 0; j < p.ranks.size(); ++j)
      out << (j ? ", " : "") << p.ranks[j];
    out << ']';
    first = false;
    put_number(out, "from_s", p.from_s, &first);
    put_number(out, "until_s", p.until_s, &first);
    out << '}';
  }
  out << "]}";
  return out.str();
}

FaultPlan scaled_fault_plan(const FaultPlan& plan, double k) {
  FaultPlan out = plan;
  const auto scale = [k](double& t) {
    if (t != kInf) t *= k;
  };
  for (auto& c : out.crashes) scale(c.at_s);
  for (auto& s : out.stragglers) {
    scale(s.from_s);
    scale(s.until_s);
  }
  for (auto& l : out.links) {
    scale(l.extra_delay_s);
    scale(l.from_s);
    scale(l.until_s);
  }
  for (auto& t : out.tokens) {
    scale(t.from_s);
    scale(t.until_s);
  }
  for (auto& p : out.pauses) {
    scale(p.from_s);
    scale(p.until_s);
  }
  for (auto& p : out.partitions) {
    scale(p.from_s);
    scale(p.until_s);
  }
  return out;
}

}  // namespace pmpl::runtime
