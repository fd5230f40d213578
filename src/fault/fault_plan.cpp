#include "src/fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "src/util/fields.hpp"
#include "src/util/logging.hpp"
#include "src/util/table.hpp"

namespace slim::fault {

const char* op_filter_name(OpFilter filter) {
  switch (filter) {
    case OpFilter::Any: return "any";
    case OpFilter::Forward: return "forward";
    case OpFilter::Backward: return "backward";
    case OpFilter::Comm: return "comm";
  }
  return "?";
}

namespace {

bool finite_ge(double value, double bound) {
  return std::isfinite(value) && value >= bound;
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation

std::vector<PlanIssue> validate(const FaultPlan& plan, int world_size) {
  std::vector<PlanIssue> issues;
  auto add = [&](const std::string& rule, const std::string& where,
                 const std::string& message) {
    issues.push_back({rule, where, message});
  };
  auto device_ok = [&](int device, bool wildcard_allowed) {
    if (device == -1) return wildcard_allowed;
    if (device < 0) return false;
    return world_size < 0 || device < world_size;
  };

  for (std::size_t i = 0; i < plan.stragglers.size(); ++i) {
    const Straggler& s = plan.stragglers[i];
    const std::string where = "straggler " + std::to_string(i);
    if (!finite_ge(s.factor, 1.0)) {
      add("fault-straggler-factor", where,
          "slowdown factor must be finite and >= 1 (got " +
              std::to_string(s.factor) + ")");
    }
    if (!std::isfinite(s.jitter) || s.jitter < 0.0 || s.jitter > 1.0) {
      add("fault-straggler-jitter", where,
          "jitter must be in [0, 1] (got " + std::to_string(s.jitter) + ")");
    }
    if (s.from_op < 0 || (s.to_op >= 0 && s.to_op < s.from_op)) {
      add("fault-straggler-window", where,
          "op window [" + std::to_string(s.from_op) + ", " +
              std::to_string(s.to_op) + "] is empty or negative");
    }
    if (!device_ok(s.device, /*wildcard_allowed=*/true)) {
      add("fault-device-range", where,
          "device " + std::to_string(s.device) + " outside the cluster");
    }
  }
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const LinkFault& l = plan.links[i];
    const std::string where = "link " + std::to_string(i);
    if (!finite_ge(l.slowdown, 1.0) || !finite_ge(l.extra_latency, 0.0)) {
      add("fault-link-degradation", where,
          "slowdown must be >= 1 and extra latency >= 0");
    }
    if (!device_ok(l.src, /*wildcard_allowed=*/true)) {
      add("fault-device-range", where,
          "sender " + std::to_string(l.src) + " outside the cluster");
    }
  }
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const Crash& c = plan.crashes[i];
    const std::string where = "crash " + std::to_string(i);
    if (c.at_op < 0 || !finite_ge(c.restart_cost, 0.0)) {
      add("fault-crash-point", where,
          "crash needs at_op >= 0 and restart_cost >= 0");
    }
    if (!device_ok(c.device, /*wildcard_allowed=*/false)) {
      add("fault-device-range", where,
          "device " + std::to_string(c.device) + " outside the cluster");
    }
  }
  for (std::size_t i = 0; i < plan.stage_crashes.size(); ++i) {
    const StageCrash& c = plan.stage_crashes[i];
    const std::string where = "stage_crash " + std::to_string(i);
    if (c.after_messages < 1) {
      add("fault-stage-crash-point", where,
          "after_messages must be >= 1 (the crash fires between messages)");
    }
    if (!device_ok(c.stage, /*wildcard_allowed=*/false)) {
      add("fault-device-range", where,
          "stage " + std::to_string(c.stage) + " outside the pipeline");
    }
  }
  for (std::size_t i = 0; i < plan.stage_hangs.size(); ++i) {
    const StageHang& h = plan.stage_hangs[i];
    const std::string where = "stage_hang " + std::to_string(i);
    if (h.after_messages < 1) {
      add("fault-stage-hang-point", where, "after_messages must be >= 1");
    }
    if (!device_ok(h.stage, /*wildcard_allowed=*/false)) {
      add("fault-device-range", where,
          "stage " + std::to_string(h.stage) + " outside the pipeline");
    }
  }
  for (std::size_t i = 0; i < plan.delays.size(); ++i) {
    const MessageDelay& d = plan.delays[i];
    const std::string where = "delay " + std::to_string(i);
    if (d.every < 1 || !finite_ge(d.seconds, 0.0)) {
      add("fault-delay-params", where,
          "delay needs every >= 1 and seconds >= 0");
    }
    if (!device_ok(d.stage, /*wildcard_allowed=*/true)) {
      add("fault-device-range", where,
          "stage " + std::to_string(d.stage) + " outside the pipeline");
    }
  }
  for (std::size_t i = 0; i < plan.socket_drops.size(); ++i) {
    const SocketDrop& d = plan.socket_drops[i];
    const std::string where = "socket_drop " + std::to_string(i);
    if (d.every < 1 || d.count < 1 || d.max_retries < 0) {
      add("fault-socket-drop-params", where,
          "socket drop needs every >= 1, count >= 1 and max_retries >= 0");
    }
    if (!device_ok(d.stage, /*wildcard_allowed=*/true)) {
      add("fault-device-range", where,
          "stage " + std::to_string(d.stage) + " outside the pipeline");
    }
  }
  for (std::size_t i = 0; i < plan.socket_connect_fails.size(); ++i) {
    const SocketConnectFail& c = plan.socket_connect_fails[i];
    const std::string where = "socket_connect " + std::to_string(i);
    if (c.failures < 1) {
      add("fault-socket-connect-params", where, "failures must be >= 1");
    }
    if (!device_ok(c.stage, /*wildcard_allowed=*/false)) {
      add("fault-device-range", where,
          "stage " + std::to_string(c.stage) + " outside the pipeline");
    }
  }
  for (std::size_t i = 0; i < plan.socket_delays.size(); ++i) {
    const SocketDelay& d = plan.socket_delays[i];
    const std::string where = "socket_delay " + std::to_string(i);
    if (d.every < 1 || !finite_ge(d.seconds, 0.0)) {
      add("fault-socket-delay-params", where,
          "socket delay needs every >= 1 and seconds >= 0");
    }
    if (!device_ok(d.stage, /*wildcard_allowed=*/true)) {
      add("fault-device-range", where,
          "stage " + std::to_string(d.stage) + " outside the pipeline");
    }
  }
  return issues;
}

StageRules stage_rules(const FaultPlan& plan, int stage) {
  StageRules rules;
  for (const StageCrash& crash : plan.stage_crashes) {
    if (crash.stage == stage) rules.crash_after = crash.after_messages;
  }
  for (const StageHang& hang : plan.stage_hangs) {
    if (hang.stage == stage) rules.hang_after = hang.after_messages;
  }
  for (const MessageDelay& delay : plan.delays) {
    if (delay.stage == -1 || delay.stage == stage) {
      rules.delay_every = delay.every;
      rules.delay_seconds = delay.seconds;
    }
  }
  return rules;
}

bool has_rule(const std::vector<PlanIssue>& issues,
              const std::string& rule_id) {
  for (const PlanIssue& issue : issues) {
    if (issue.rule_id == rule_id) return true;
  }
  return false;
}

std::string render(const std::vector<PlanIssue>& issues) {
  if (issues.empty()) return "clean\n";
  Table table({"rule", "location", "message"});
  for (const PlanIssue& issue : issues) {
    table.add_row({issue.rule_id, issue.location, issue.message});
  }
  return table.to_string();
}

// ---------------------------------------------------------------------------
// Text round-trip: the directive records' field lists (src/util/fields.hpp)
// hold the text's keys in the text's order, and parse_plan and to_text walk
// them. A key a line leaves out keeps the record's default.

template <MaybeConst<Straggler> S, class Visit>
void fields(S& s, Visit&& visit) {
  visit("device", s.device);
  visit("ops", s.ops, op_filter_name);
  visit("factor", s.factor);
  visit("jitter", s.jitter);
  visit("from", s.from_op);
  visit("to", s.to_op);
}

template <MaybeConst<LinkFault> L, class Visit>
void fields(L& l, Visit&& visit) {
  visit("src", l.src);
  visit("slowdown", l.slowdown);
  visit("extra_latency", l.extra_latency);
}

template <MaybeConst<Crash> C, class Visit>
void fields(C& c, Visit&& visit) {
  visit("device", c.device);
  visit("at_op", c.at_op);
  visit("restart_cost", c.restart_cost);
}

template <class S, class Visit>
  requires MaybeConst<S, StageCrash> || MaybeConst<S, StageHang>
void fields(S& s, Visit&& visit) {
  visit("stage", s.stage);
  visit("after_messages", s.after_messages);
}

template <class D, class Visit>
  requires MaybeConst<D, MessageDelay> || MaybeConst<D, SocketDelay>
void fields(D& d, Visit&& visit) {
  visit("stage", d.stage);
  visit("every", d.every);
  visit("seconds", d.seconds);
}

template <MaybeConst<SocketDrop> D, class Visit>
void fields(D& d, Visit&& visit) {
  visit("stage", d.stage);
  visit("every", d.every);
  visit("count", d.count);
  visit("max_retries", d.max_retries);
}

template <MaybeConst<SocketConnectFail> C, class Visit>
void fields(C& c, Visit&& visit) {
  visit("stage", c.stage);
  visit("failures", c.failures);
}

/// The plan's directive list: each directive's name and records.
template <MaybeConst<FaultPlan> P, class Visit>
void directives(P& plan, Visit&& visit) {
  visit("straggler", plan.stragglers);
  visit("link", plan.links);
  visit("crash", plan.crashes);
  visit("stage_crash", plan.stage_crashes);
  visit("stage_hang", plan.stage_hangs);
  visit("delay", plan.delays);
  visit("socket_drop", plan.socket_drops);
  visit("socket_connect", plan.socket_connect_fails);
  visit("socket_delay", plan.socket_delays);
}

bool FaultPlan::empty() const {
  bool none = true;
  directives(*this, [&](std::string_view, const auto& records) {
    none = none && records.empty();
  });
  return none;
}

/// Reads a directive line's key=value tokens into `record`.
template <class Record>
void read_directive(std::istringstream& line, const std::string& kind,
                    Record& record) {
  std::vector<std::string> seen;
  std::string token;
  while (line >> token) {
    const std::size_t eq = token.find('=');
    SLIM_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
               "fault plan: '" + kind + "' expects key=value, got '" + token +
                   "'");
    const std::string key = token.substr(0, eq), value = token.substr(eq + 1);
    SLIM_CHECK(std::find(seen.begin(), seen.end(), key) == seen.end(),
               "fault plan: duplicate key '" + key + "'");
    seen.push_back(key);
    bool known = false;
    fields(record, [&](std::string_view name, auto& member, auto... how) {
      if (name != key) return;
      known = true;
      SLIM_CHECK(util::read_token(value, &member, how...),
                 "fault plan: bad value '" + value + "' for '" + key + "'");
    });
    SLIM_CHECK(known, "fault plan: unknown key '" + key + "' for '" + kind +
                          "'");
  }
}

FaultPlan parse_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    std::istringstream line(raw.substr(0, raw.find('#')));
    std::string kind, seed, extra;
    if (!(line >> kind)) continue;
    if (kind == "seed") {
      line >> seed;
      SLIM_CHECK(util::read_token(seed, &plan.seed) && !(line >> extra),
                 "fault plan: 'seed' expects one integer");
      continue;
    }
    bool known = false;
    directives(plan, [&](std::string_view name, auto& records) {
      if (name != kind) return;
      known = true;
      read_directive(line, kind, records.emplace_back());
    });
    SLIM_CHECK(known, "fault plan: unknown directive '" + kind + "'");
  }
  return plan;
}

std::string to_text(const FaultPlan& plan) {
  std::string out = "seed " + util::token_text(plan.seed) + "\n";
  directives(plan, [&](std::string_view name, const auto& records) {
    for (const auto& record : records) {
      out += name;
      fields(record, [&](std::string_view key, const auto& member,
                         auto... how) {
        ((out += ' ') += key) += '=';
        out += util::token_text(member, how...);
      });
      out += '\n';
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// FaultReport

const char* event_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::Straggler: return "straggler";
    case FaultEvent::Kind::LinkDegraded: return "link-degraded";
    case FaultEvent::Kind::Crash: return "crash";
    case FaultEvent::Kind::Hang: return "hang";
    case FaultEvent::Kind::Delay: return "delay";
    case FaultEvent::Kind::Watchdog: return "watchdog";
    case FaultEvent::Kind::Recovery: return "recovery";
    case FaultEvent::Kind::SocketDrop: return "socket-drop";
    case FaultEvent::Kind::SocketDelay: return "socket-delay";
    case FaultEvent::Kind::ConnectRetry: return "connect-retry";
  }
  return "?";
}

bool FaultReport::has_kind(FaultEvent::Kind kind) const {
  for (const FaultEvent& event : events) {
    if (event.kind == kind) return true;
  }
  return false;
}

std::string FaultReport::render() const {
  std::ostringstream out;
  if (events.empty()) {
    out << "no fault events\n";
  } else {
    Table table({"event", "dev/stage", "time", "index", "detail"});
    for (const FaultEvent& event : events) {
      table.add_row({event_kind_name(event.kind),
                     event.device < 0 ? "-" : std::to_string(event.device),
                     event.time > 0.0 ? fmt(event.time, 4) : "-",
                     event.index < 0 ? "-" : std::to_string(event.index),
                     event.detail});
    }
    out << table.to_string();
  }
  if (injected_seconds > 0.0) {
    out << "injected slowdown: " << fmt(injected_seconds, 4) << " s\n";
  }
  if (recovery_overhead > 0.0) {
    out << "recovery overhead: " << fmt(recovery_overhead, 4) << " s\n";
  }
  if (!replayed_microbatches.empty()) {
    out << "replayed microbatches:";
    for (const int mb : replayed_microbatches) out << " " << mb;
    out << "\n";
  }
  if (!blocked_table.empty()) {
    out << "blocked-on state:\n" << blocked_table;
  }
  return out.str();
}

}  // namespace slim::fault
