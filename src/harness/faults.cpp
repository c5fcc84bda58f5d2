#include "harness/faults.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <system_error>

namespace netclone::harness {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    tokens.push_back(tok);
  }
  return tokens;
}

[[noreturn]] void fail(const std::string& line, const std::string& why) {
  throw FaultPlanError("bad fault entry '" + line + "': " + why);
}

/// Parses "2s" / "3.5ms" / "250us" / "1500ns" into a SimTime.
SimTime parse_time(const std::string& line, const std::string& text) {
  std::size_t unit = 0;
  while (unit < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[unit])) != 0 ||
          text[unit] == '.' || text[unit] == '+' || text[unit] == '-' ||
          text[unit] == 'e' || text[unit] == 'E')) {
    // 'e' may start the unit suffix rather than an exponent; back off if
    // the rest of the string is not a valid suffix continuation.
    if ((text[unit] == 'e' || text[unit] == 'E') &&
        (unit + 1 >= text.size() ||
         (std::isdigit(static_cast<unsigned char>(text[unit + 1])) == 0 &&
          text[unit + 1] != '+' && text[unit + 1] != '-'))) {
      break;
    }
    ++unit;
  }
  if (unit == 0) {
    fail(line, "missing time value in '" + text + "'");
  }
  char* end = nullptr;
  const std::string digits = text.substr(0, unit);
  const double value = std::strtod(digits.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    fail(line, "bad time value '" + digits + "'");
  }
  if (value < 0.0) {
    fail(line, "negative time '" + text + "'");
  }
  const std::string suffix = text.substr(unit);
  double ns_per_unit = 0.0;
  if (suffix == "s") {
    ns_per_unit = 1e9;
  } else if (suffix == "ms") {
    ns_per_unit = 1e6;
  } else if (suffix == "us") {
    ns_per_unit = 1e3;
  } else if (suffix == "ns") {
    ns_per_unit = 1.0;
  } else {
    fail(line, "unknown time unit '" + suffix + "' (use ns/us/ms/s)");
  }
  // The same product SimTime::seconds() & co. truncate; anything from 2^63
  // up (or infinite) has no int64 nanosecond count.
  const double ns = value * ns_per_unit;
  if (!(ns < 0x1p63)) {
    fail(line, "time '" + text + "' is beyond the simulated clock's range");
  }
  return SimTime{static_cast<std::int64_t>(ns)};
}

double parse_number(const std::string& line, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    fail(line, "bad numeric operand '" + text + "'");
  }
  return value;
}

/// A non-negative integer operand in plain decimal digits.
std::uint64_t parse_integer(const std::string& line, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    fail(line, "bad integer operand '" + text + "'");
  }
  return value;
}

struct ActionSpec {
  const char* name;
  FaultAction action;
  /// Operand count after the target (rates and slowdown take 1,
  /// filter_stale takes 2: table index and request id).
  int extra_operands;
};

constexpr ActionSpec kActions[] = {
    {"link_down", FaultAction::kLinkDown, 0},
    {"link_up", FaultAction::kLinkUp, 0},
    {"drop_rate", FaultAction::kDropRate, 1},
    {"corrupt_rate", FaultAction::kCorruptRate, 1},
    {"reorder_rate", FaultAction::kReorderRate, 1},
    {"duplicate_rate", FaultAction::kDuplicateRate, 1},
    {"server_crash", FaultAction::kServerCrash, 0},
    {"server_restart", FaultAction::kServerRestart, 0},
    {"server_pause", FaultAction::kServerPause, 0},
    {"server_resume", FaultAction::kServerResume, 0},
    {"server_slowdown", FaultAction::kServerSlowdown, 1},
    {"switch_fail", FaultAction::kSwitchFail, 0},
    {"switch_recover", FaultAction::kSwitchRecover, 0},
    {"switch_wipe", FaultAction::kSwitchWipe, 0},
    {"filter_stale", FaultAction::kFilterStale, 2},
    {"agg_fail", FaultAction::kAggFail, 0},
    {"agg_rejoin", FaultAction::kAggRejoin, 0},
    {"rack_down", FaultAction::kRackDown, 0},
    {"rack_up", FaultAction::kRackUp, 0},
};

/// `server_crash s2` / `agg_fail agg1` / `rack_down rack0`: the target
/// must be the expected prefix followed by a decimal index, so a typo
/// fails at parse time with the key named, not at fire time deep in the
/// harness.
void check_indexed_target(const std::string& line, const char* action,
                          const std::string& target, const char* prefix) {
  if (!target_index(target, prefix)) {
    fail(line, std::string("action '") + action + "' needs a '" + prefix +
                   "<N>' target, got '" + target + "'");
  }
}

}  // namespace

std::optional<std::size_t> target_index(std::string_view target,
                                        std::string_view prefix) {
  if (!target.starts_with(prefix)) {
    return std::nullopt;
  }
  const std::string_view digits = target.substr(prefix.size());
  std::size_t index = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, index);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return index;
}

const char* fault_action_name(FaultAction action) {
  for (const ActionSpec& spec : kActions) {
    if (spec.action == action) {
      return spec.name;
    }
  }
  return "?";
}

FaultEvent parse_fault_entry(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.size() < 3) {
    fail(line, "expected 'at=<time> <action> <target> [args]'");
  }
  if (tokens[0].rfind("at=", 0) != 0) {
    fail(line, "entry must start with 'at='");
  }

  FaultEvent ev;
  ev.at = parse_time(line, tokens[0].substr(3));

  const ActionSpec* spec = nullptr;
  for (const ActionSpec& candidate : kActions) {
    if (tokens[1] == candidate.name) {
      spec = &candidate;
      break;
    }
  }
  if (spec == nullptr) {
    fail(line, "unknown action '" + tokens[1] + "'");
  }
  ev.action = spec->action;
  ev.target = tokens[2];

  const std::size_t expected = 3 + static_cast<std::size_t>(
                                       spec->extra_operands);
  if (tokens.size() != expected) {
    fail(line, std::string("action '") + spec->name + "' takes " +
                   std::to_string(spec->extra_operands) +
                   " operand(s) after the target");
  }

  switch (spec->action) {
    case FaultAction::kServerCrash:
    case FaultAction::kServerRestart:
    case FaultAction::kServerPause:
    case FaultAction::kServerResume:
    case FaultAction::kServerSlowdown:
      check_indexed_target(line, spec->name, ev.target, "s");
      break;
    case FaultAction::kAggFail:
    case FaultAction::kAggRejoin:
      check_indexed_target(line, spec->name, ev.target, "agg");
      break;
    case FaultAction::kRackDown:
    case FaultAction::kRackUp:
      check_indexed_target(line, spec->name, ev.target, "rack");
      break;
    default:
      break;
  }

  if (spec->action == FaultAction::kFilterStale) {
    const std::uint64_t table = parse_integer(line, tokens[3]);
    const std::uint64_t req_id = parse_integer(line, tokens[4]);
    if (req_id < 1 || req_id > std::numeric_limits<std::uint32_t>::max()) {
      fail(line, "filter_stale needs req_id in [1, 2^32 - 1]");
    }
    ev.table = static_cast<std::size_t>(table);
    ev.value = static_cast<double>(req_id);
  } else if (spec->action == FaultAction::kServerSlowdown) {
    ev.value = parse_number(line, tokens[3]);
    if (!std::isfinite(ev.value) || ev.value <= 0.0) {
      fail(line, "slowdown factor must be finite and positive");
    }
  } else if (spec->extra_operands == 1) {
    // The four impairment rates are probabilities; the negated test also
    // rejects NaN.
    ev.value = parse_number(line, tokens[3]);
    if (!(ev.value >= 0.0 && ev.value <= 1.0)) {
      fail(line, "rate must be in [0, 1]");
    }
  }
  return ev;
}

FaultPlan parse_fault_plan(const std::string& text,
                           const std::string& source) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;
    }
    const std::size_t last = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(first, last - first + 1);
    try {
      plan.events.push_back(parse_fault_entry(entry));
    } catch (const FaultPlanError& err) {
      const std::string where =
          (source.empty() ? std::string{} : source + ": ") + "line " +
          std::to_string(line_no) + ": ";
      throw FaultPlanError(where + err.what());
    }
  }
  return plan;
}

}  // namespace netclone::harness
