#include "src/fault/fault_plan.hpp"

#include <cmath>
#include <sstream>

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

OpFilter parse_op_filter(const std::string& name) {
  if (name == "any") return OpFilter::Any;
  if (name == "forward") return OpFilter::Forward;
  if (name == "backward") return OpFilter::Backward;
  if (name == "comm") return OpFilter::Comm;
  SLIM_CHECK(false, "unknown op filter '" + name + "'");
  return OpFilter::Any;
}

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
// Text round-trip

namespace {

struct KvArgs {
  std::vector<std::pair<std::string, std::string>> pairs;

  const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const std::string* v = find(key);
    return v == nullptr ? fallback : std::stoll(*v);
  }
  double get_double(const std::string& key, double fallback) const {
    const std::string* v = find(key);
    return v == nullptr ? fallback : std::stod(*v);
  }
};

KvArgs parse_kv(std::istringstream& line, const std::string& kind,
                const std::vector<std::string>& allowed) {
  KvArgs args;
  std::string token;
  while (line >> token) {
    const std::size_t eq = token.find('=');
    SLIM_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
               "fault plan: '" + kind + "' expects key=value, got '" + token +
                   "'");
    const std::string key = token.substr(0, eq);
    bool known = false;
    for (const std::string& a : allowed) known = known || a == key;
    SLIM_CHECK(known, "fault plan: unknown key '" + key + "' for '" + kind +
                          "'");
    SLIM_CHECK(args.find(key) == nullptr,
               "fault plan: duplicate key '" + key + "'");
    args.pairs.emplace_back(key, token.substr(eq + 1));
  }
  return args;
}

}  // namespace

FaultPlan parse_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string kind;
    if (!(line >> kind)) continue;
    if (kind == "seed") {
      std::uint64_t seed = 0;
      SLIM_CHECK(static_cast<bool>(line >> seed),
                 "fault plan: 'seed' expects one integer");
      plan.seed = seed;
    } else if (kind == "straggler") {
      const KvArgs a = parse_kv(line, kind,
                                {"device", "ops", "factor", "jitter", "from",
                                 "to"});
      Straggler s;
      s.device = static_cast<int>(a.get_int("device", -1));
      if (const std::string* ops = a.find("ops")) s.ops = parse_op_filter(*ops);
      s.factor = a.get_double("factor", 1.0);
      s.jitter = a.get_double("jitter", 0.0);
      s.from_op = a.get_int("from", 0);
      s.to_op = a.get_int("to", -1);
      plan.stragglers.push_back(s);
    } else if (kind == "link") {
      const KvArgs a = parse_kv(line, kind, {"src", "slowdown",
                                             "extra_latency"});
      LinkFault l;
      l.src = static_cast<int>(a.get_int("src", -1));
      l.slowdown = a.get_double("slowdown", 1.0);
      l.extra_latency = a.get_double("extra_latency", 0.0);
      plan.links.push_back(l);
    } else if (kind == "crash") {
      const KvArgs a = parse_kv(line, kind, {"device", "at_op",
                                             "restart_cost"});
      Crash c;
      c.device = static_cast<int>(a.get_int("device", 0));
      c.at_op = a.get_int("at_op", 0);
      c.restart_cost = a.get_double("restart_cost", 1.0);
      plan.crashes.push_back(c);
    } else if (kind == "stage_crash") {
      const KvArgs a = parse_kv(line, kind, {"stage", "after_messages"});
      plan.stage_crashes.push_back(
          {static_cast<int>(a.get_int("stage", 0)),
           a.get_int("after_messages", 1)});
    } else if (kind == "stage_hang") {
      const KvArgs a = parse_kv(line, kind, {"stage", "after_messages"});
      plan.stage_hangs.push_back({static_cast<int>(a.get_int("stage", 0)),
                                  a.get_int("after_messages", 1)});
    } else if (kind == "delay") {
      const KvArgs a = parse_kv(line, kind, {"stage", "every", "seconds"});
      MessageDelay d;
      d.stage = static_cast<int>(a.get_int("stage", -1));
      d.every = a.get_int("every", 1);
      d.seconds = a.get_double("seconds", 0.0);
      plan.delays.push_back(d);
    } else if (kind == "socket_drop") {
      const KvArgs a = parse_kv(line, kind,
                                {"stage", "every", "count", "max_retries"});
      SocketDrop d;
      d.stage = static_cast<int>(a.get_int("stage", -1));
      d.every = a.get_int("every", 1);
      d.count = static_cast<int>(a.get_int("count", 1));
      d.max_retries = static_cast<int>(a.get_int("max_retries", 3));
      plan.socket_drops.push_back(d);
    } else if (kind == "socket_connect") {
      const KvArgs a = parse_kv(line, kind, {"stage", "failures"});
      plan.socket_connect_fails.push_back(
          {static_cast<int>(a.get_int("stage", 0)),
           static_cast<int>(a.get_int("failures", 1))});
    } else if (kind == "socket_delay") {
      const KvArgs a = parse_kv(line, kind, {"stage", "every", "seconds"});
      SocketDelay d;
      d.stage = static_cast<int>(a.get_int("stage", -1));
      d.every = a.get_int("every", 1);
      d.seconds = a.get_double("seconds", 0.0);
      plan.socket_delays.push_back(d);
    } else {
      SLIM_CHECK(false, "fault plan: unknown directive '" + kind + "'");
    }
  }
  return plan;
}

std::string to_text(const FaultPlan& plan) {
  std::ostringstream out;
  out << "seed " << plan.seed << "\n";
  for (const Straggler& s : plan.stragglers) {
    out << "straggler device=" << s.device << " ops=" << op_filter_name(s.ops)
        << " factor=" << s.factor << " jitter=" << s.jitter
        << " from=" << s.from_op << " to=" << s.to_op << "\n";
  }
  for (const LinkFault& l : plan.links) {
    out << "link src=" << l.src << " slowdown=" << l.slowdown
        << " extra_latency=" << l.extra_latency << "\n";
  }
  for (const Crash& c : plan.crashes) {
    out << "crash device=" << c.device << " at_op=" << c.at_op
        << " restart_cost=" << c.restart_cost << "\n";
  }
  for (const StageCrash& c : plan.stage_crashes) {
    out << "stage_crash stage=" << c.stage
        << " after_messages=" << c.after_messages << "\n";
  }
  for (const StageHang& h : plan.stage_hangs) {
    out << "stage_hang stage=" << h.stage
        << " after_messages=" << h.after_messages << "\n";
  }
  for (const MessageDelay& d : plan.delays) {
    out << "delay stage=" << d.stage << " every=" << d.every
        << " seconds=" << d.seconds << "\n";
  }
  for (const SocketDrop& d : plan.socket_drops) {
    out << "socket_drop stage=" << d.stage << " every=" << d.every
        << " count=" << d.count << " max_retries=" << d.max_retries << "\n";
  }
  for (const SocketConnectFail& c : plan.socket_connect_fails) {
    out << "socket_connect stage=" << c.stage << " failures=" << c.failures
        << "\n";
  }
  for (const SocketDelay& d : plan.socket_delays) {
    out << "socket_delay stage=" << d.stage << " every=" << d.every
        << " seconds=" << d.seconds << "\n";
  }
  return out.str();
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
