#include "src/obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/fields.hpp"

namespace slim::obs {

void BenchReport::add_series(const std::string& title, const Table& table) {
  SeriesTable s;
  s.title = title;
  s.columns = table.header();
  s.rows = table.data_rows();
  series.push_back(std::move(s));
}

// Field lists of the report records (src/util/fields.hpp).

template <MaybeConst<SeriesTable> S, class Visit>
void fields(S& s, Visit&& visit) {
  visit("title", s.title);
  visit("columns", s.columns);
  visit("rows", s.rows);
}

template <MaybeConst<RunRecord> R, class Visit>
void fields(R& r, Visit&& visit) {
  visit("label", r.label);
  visit("iteration_time", r.iteration_time);
  visit("bubble_fraction", r.bubble_fraction);
  visit("mfu", r.mfu);
  visit("peak_memory", r.peak_memory);
  visit("oom", r.oom);
  visit("metrics", r.metrics);
}

template <MaybeConst<BenchReport> B, class Visit>
void fields(B& b, Visit&& visit) {
  visit("name", b.name);
  visit("artifact", b.artifact);
  visit("setup", b.setup);
  visit("expectation", b.expectation);
  visit("series", b.series);
  visit("runs", b.runs);
}

// The schema and version members lead the file; validate_report checks
// them, the reader does not need them.
JsonValue report_to_json(const BenchReport& report) {
  JsonValue root = JsonValue::make_object();
  root.set("schema", JsonValue::make_string(kReportSchema));
  root.set("version", JsonValue::make_number(kReportVersion));
  fields(report, JsonWriter(root));
  return root;
}

bool report_from_json(const JsonValue& value, BenchReport* out) {
  return from_json(value, out);
}

bool load_json(const std::string& path, JsonValue* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  if (!JsonValue::parse(buffer.str(), out, &parse_error)) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return false;
  }
  return true;
}

bool load_report(const std::string& path, BenchReport* out,
                 std::string* error) {
  JsonValue doc;
  if (!load_json(path, &doc, error)) return false;
  if (!report_from_json(doc, out)) {
    if (error != nullptr) *error = path + ": not a bench report object";
    return false;
  }
  return true;
}

bool write_report(const BenchReport& report, const std::string& path) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << report_to_json(report).dump(2) << "\n";
  return static_cast<bool>(out);
}

std::vector<std::string> validate_report(const JsonValue& value) {
  std::vector<std::string> issues;
  auto require = [&](bool ok, const std::string& message) {
    if (!ok) issues.push_back(message);
    return ok;
  };
  if (!require(value.is_object(), "root is not an object")) return issues;

  const JsonValue* schema = value.find("schema");
  require(schema != nullptr && schema->is_string() &&
              schema->str() == kReportSchema,
          std::string("schema must be \"") + kReportSchema + "\"");
  const JsonValue* version = value.find("version");
  require(version != nullptr && version->is_number() &&
              version->number() == kReportVersion,
          "version must be " + std::to_string(kReportVersion));
  const JsonValue* name = value.find("name");
  require(name != nullptr && name->is_string() && !name->str().empty(),
          "name must be a non-empty string");

  const JsonValue* series = value.find("series");
  if (require(series != nullptr && series->is_array(),
              "series must be an array")) {
    int index = 0;
    for (const JsonValue& entry : series->array()) {
      const std::string where = "series[" + std::to_string(index++) + "]";
      if (!require(entry.is_object(), where + " is not an object")) continue;
      const JsonValue* title = entry.find("title");
      require(title != nullptr && title->is_string(),
              where + ".title must be a string");
      const JsonValue* columns = entry.find("columns");
      std::size_t width = 0;
      if (require(columns != nullptr && columns->is_array(),
                  where + ".columns must be an array")) {
        width = columns->array().size();
        for (const JsonValue& c : columns->array()) {
          require(c.is_string(), where + ".columns entries must be strings");
        }
      }
      const JsonValue* rows = entry.find("rows");
      if (require(rows != nullptr && rows->is_array(),
                  where + ".rows must be an array")) {
        int r = 0;
        for (const JsonValue& row : rows->array()) {
          const std::string rw = where + ".rows[" + std::to_string(r++) + "]";
          if (!require(row.is_array(), rw + " is not an array")) continue;
          require(row.array().size() == width,
                  rw + " width != columns width");
          for (const JsonValue& cell : row.array()) {
            require(cell.is_string(), rw + " cells must be strings");
          }
        }
      }
    }
  }

  const JsonValue* runs = value.find("runs");
  if (require(runs != nullptr && runs->is_array(), "runs must be an array")) {
    int index = 0;
    for (const JsonValue& entry : runs->array()) {
      const std::string where = "runs[" + std::to_string(index++) + "]";
      if (!require(entry.is_object(), where + " is not an object")) continue;
      const JsonValue* label = entry.find("label");
      require(label != nullptr && label->is_string(),
              where + ".label must be a string");
      for (const char* key :
           {"iteration_time", "bubble_fraction", "mfu", "peak_memory"}) {
        const JsonValue* v = entry.find(key);
        require(v != nullptr && v->is_number(),
                where + "." + key + " must be a number");
      }
      const JsonValue* metrics = entry.find("metrics");
      if (metrics != nullptr) {
        if (require(metrics->is_object(), where + ".metrics not an object")) {
          const JsonValue* stages = metrics->find("stages");
          require(stages != nullptr && stages->is_array(),
                  where + ".metrics.stages must be an array");
        }
      }
    }
  }
  return issues;
}

namespace {

/// Parses a pre-formatted cell such as "12.34", "87.5%", "1.23 GiB" as a
/// leading double; returns false for non-numeric cells ("ok", "--").
bool leading_number(const std::string& cell, double* out) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return false;
  *out = value;
  return true;
}

std::string diff_cell(const std::string& a, const std::string& b) {
  if (a == b) return a;
  double va = 0.0;
  double vb = 0.0;
  if (leading_number(a, &va) && leading_number(b, &vb) && va != 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%+.1f%%)", (vb - va) / va * 100.0);
    return a + " -> " + b + buf;
  }
  return a + " -> " + b;
}

Table run_summary_table(const BenchReport& report) {
  Table table({"label", "iter time", "bubble", "MFU", "peak mem", "status"});
  for (const RunRecord& run : report.runs) {
    table.add_row({run.label, fmt(run.iteration_time, 4),
                   fmt(run.bubble_fraction, 4), fmt(run.mfu, 4),
                   fmt(run.peak_memory / (1024.0 * 1024.0 * 1024.0), 2) +
                       " GiB",
                   run.oom ? "OOM" : "ok"});
  }
  return table;
}

}  // namespace

std::string render_report(const BenchReport& report) {
  std::ostringstream out;
  out << "report: " << report.name << "\n";
  if (!report.artifact.empty()) out << "artifact: " << report.artifact << "\n";
  if (!report.setup.empty()) out << "setup: " << report.setup << "\n";
  if (!report.expectation.empty()) {
    out << "expectation: " << report.expectation << "\n";
  }
  for (const SeriesTable& s : report.series) {
    out << "\n" << s.title << "\n";
    Table table(s.columns);
    for (const std::vector<std::string>& row : s.rows) {
      if (row.size() == s.columns.size()) table.add_row(row);
    }
    out << table.to_string();
  }
  if (!report.runs.empty()) {
    out << "\nruns\n" << run_summary_table(report).to_string();
  }
  return out.str();
}

std::string render_diff(const BenchReport& a, const BenchReport& b) {
  std::ostringstream out;
  out << "diff: " << a.name << " vs " << b.name << "\n";

  for (const SeriesTable& sa : a.series) {
    const SeriesTable* sb = nullptr;
    for (const SeriesTable& candidate : b.series) {
      if (candidate.title == sa.title) {
        sb = &candidate;
        break;
      }
    }
    if (sb == nullptr) {
      out << "\n" << sa.title << ": only in " << a.name << "\n";
      continue;
    }
    if (sb->columns != sa.columns) {
      out << "\n" << sa.title << ": column sets differ, not comparable\n";
      continue;
    }
    out << "\n" << sa.title << "\n";
    Table table(sa.columns);
    const std::size_t rows = std::max(sa.rows.size(), sb->rows.size());
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (std::size_t c = 0; c < sa.columns.size(); ++c) {
        const std::string va =
            r < sa.rows.size() && c < sa.rows[r].size() ? sa.rows[r][c] : "--";
        const std::string vb = r < sb->rows.size() && c < sb->rows[r].size()
                                   ? sb->rows[r][c]
                                   : "--";
        cells.push_back(diff_cell(va, vb));
      }
      table.add_row(std::move(cells));
    }
    out << table.to_string();
  }
  for (const SeriesTable& sb : b.series) {
    bool found = false;
    for (const SeriesTable& sa : a.series) {
      if (sa.title == sb.title) {
        found = true;
        break;
      }
    }
    if (!found) out << "\n" << sb.title << ": only in " << b.name << "\n";
  }

  if (!a.runs.empty() || !b.runs.empty()) {
    out << "\nruns\n";
    Table table({"label", "metric", a.name, b.name, "delta"});
    for (const RunRecord& ra : a.runs) {
      const RunRecord* rb = nullptr;
      for (const RunRecord& candidate : b.runs) {
        if (candidate.label == ra.label) {
          rb = &candidate;
          break;
        }
      }
      if (rb == nullptr) {
        table.add_row({ra.label, "(run)", "present", "--", "--"});
        continue;
      }
      struct MetricRow {
        const char* name;
        double a;
        double b;
      };
      const MetricRow metrics[] = {
          {"iter time", ra.iteration_time, rb->iteration_time},
          {"bubble", ra.bubble_fraction, rb->bubble_fraction},
          {"mfu", ra.mfu, rb->mfu},
          {"peak mem", ra.peak_memory, rb->peak_memory},
      };
      for (const MetricRow& m : metrics) {
        std::string delta = "--";
        if (m.a != 0.0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%+.1f%%",
                        (m.b - m.a) / m.a * 100.0);
          delta = buf;
        }
        table.add_row({ra.label, m.name, fmt(m.a, 4), fmt(m.b, 4), delta});
      }
      table.add_separator();
    }
    for (const RunRecord& rb : b.runs) {
      bool found = false;
      for (const RunRecord& ra : a.runs) {
        if (ra.label == rb.label) {
          found = true;
          break;
        }
      }
      if (!found) table.add_row({rb.label, "(run)", "--", "present", "--"});
    }
    out << table.to_string();
  }
  return out.str();
}

}  // namespace slim::obs
