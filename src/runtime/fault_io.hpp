#pragma once
/// \file fault_io.hpp
/// FaultPlan <-> JSON: load plan files with up-front validation.
///
/// A fault plan fed to a run on the command line (`--faults plan.json`)
/// used to surface its malformations as mid-run protocol errors; the
/// loader here rejects a bad plan before anything starts, and every
/// rejection names the offending field path ("links[2].drop_prob: must be
/// a number in [0, 1]") so the fix is one glance away. Unknown keys are
/// errors too — a typoed "drop_porb" must not silently validate a plan
/// that injects nothing.
///
/// File format (all members optional; wildcard ranks spelled "any"; the
/// seed is a number or, exact for every 64-bit value, a decimal string):
///   {
///     "seed": 123,
///     "crashes":    [{"rank": 2, "at_s": 0.002}],
///     "stragglers": [{"rank": 3, "slowdown": 4.0,
///                     "from_s": 0.0, "until_s": 0.5}],
///     "links":      [{"from": "any", "to": 1, "drop_prob": 0.2,
///                     "extra_delay_s": 1e-5,
///                     "from_s": 0.0, "until_s": 0.5}],
///     "tokens":     [{"drop_prob": 0.1, "from_s": 0.0, "until_s": 0.5}],
///     "pauses":     [{"rank": 1, "from_s": 0.1, "until_s": 0.4}],
///     "partitions": [{"ranks": [0, 2], "from_s": 0.1, "until_s": 0.3}]
///   }

#include <string>

#include "runtime/fault.hpp"

namespace pmpl::runtime {

/// Parse and validate a plan from JSON text. On failure returns false and
/// sets `error` to "<field path>: <requirement>"; `out` is untouched.
bool parse_fault_plan(const std::string& text, FaultPlan& out,
                      std::string& error);

/// Like parse_fault_plan, reading `path` first. I/O errors report the
/// path; validation errors report "<path>: <field path>: <requirement>".
bool load_fault_plan(const std::string& path, FaultPlan& out,
                     std::string& error);

/// Serialize a plan to the file format above (round-trips through
/// parse_fault_plan; used by reports and tests).
std::string fault_plan_to_json(const FaultPlan& plan);

/// A copy of `plan` with every time field (crash instants, windows, extra
/// delays) multiplied by `k`. The cluster launcher uses this to map a
/// plan authored in simulated seconds onto the wall clock of a real run.
/// Probabilities, ranks and the seed are untouched; infinite window ends
/// stay infinite.
FaultPlan scaled_fault_plan(const FaultPlan& plan, double k);

}  // namespace pmpl::runtime
