#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

namespace mdqa::perfbench {

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double PeakRssMb() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss would
  // also count the interpreter that exec'd this binary (run.py).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Gates::Fail(std::string_view why) {
  ++failed_;
  if (messages_.size() < 8) messages_.emplace_back(why);
}

bool Gates::Check(bool ok, std::string_view why) {
  if (!ok) Fail(why);
  return ok;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_ns_(tracer ? NowNs() : 0) {}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_.push_back(
      Span{name_, start_ns_, NowNs(), tracer_->current_op()});
}

uint64_t Tracer::BeginOp(const char* kind, uint64_t parent) {
  current_ = ++next_id_;
  current_index_ = ops_.size();
  ops_.push_back(Op{current_, kind, parent, NowNs(), 0});
  return current_;
}

void Tracer::EndOp() {
  ops_[current_index_].end_ns = NowNs();
  current_ = 0;
}

double Tracer::LayerMedianMs(std::string_view layer) const {
  std::map<uint64_t, int64_t> per_op;
  for (const Span& s : spans_) {
    if (layer == s.name) per_op[s.op] += s.end_ns - s.start_ns;
  }
  Samples samples;
  for (const auto& [op, ns] : per_op) {
    samples.Add(static_cast<double>(ns) / 1e6);
  }
  return samples.Median();
}

Samples Tracer::OpMs(std::string_view kind) const {
  Samples samples;
  for (const Op& op : ops_) {
    if (kind == op.kind) {
      samples.Add(static_cast<double>(op.end_ns - op.start_ns) / 1e6);
    }
  }
  return samples;
}

double Tracer::Coverage(const std::vector<std::string_view>& kinds) const {
  std::map<uint64_t, bool> counted;
  int64_t op_ns = 0;
  for (const Op& op : ops_) {
    if (std::find(kinds.begin(), kinds.end(), op.kind) == kinds.end()) {
      continue;
    }
    counted[op.id] = true;
    op_ns += op.end_ns - op.start_ns;
  }
  int64_t layer_ns = 0;
  for (const Span& s : spans_) {
    if (counted.count(s.op) > 0) layer_ns += s.end_ns - s.start_ns;
  }
  return op_ns > 0 ? static_cast<double>(layer_ns) / static_cast<double>(op_ns)
                   : 0;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  // Complete ("X") events in microseconds; an op and its spans share a
  // track (tid = op id), spans carry their op id and parent op in args.
  int64_t origin = 0;
  if (!ops_.empty()) origin = ops_.front().start_ns;
  for (const Op& op : ops_) origin = std::min(origin, op.start_ns);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto event = [&](const char* name, const char* cat, int64_t start,
                   int64_t end, uint64_t op, uint64_t parent) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"cat\":\""
        << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << op
        << ",\"ts\":" << static_cast<double>(start - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(end - start) / 1e3
        << ",\"args\":{\"op\":" << op << ",\"parent_op\":" << parent << "}}";
    first = false;
  };
  std::map<uint64_t, uint64_t> parent_of;
  for (const Op& op : ops_) {
    event(op.kind, "op", op.start_ns, op.end_ns, op.id, op.parent);
    parent_of[op.id] = op.parent;
  }
  for (const Span& s : spans_) {
    event(s.name, "layer", s.start_ns, s.end_ns, s.op, parent_of[s.op]);
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<Metric> LayerMetrics(const Tracer& trace, const LayerTally& tally,
                                 Gates* gates) {
  std::vector<Metric> out;
  auto ms = [&](const char* layer, const char* metric) {
    out.push_back(Metric{metric, trace.LayerMedianMs(layer), "ms"});
  };
  auto us = [&](const char* layer, const char* metric) {
    out.push_back(Metric{metric, trace.LayerMedianMs(layer) * 1e3, "us"});
  };
  auto count = [&](const char* metric, double value, const char* unit) {
    out.push_back(Metric{metric, value, unit});
  };
  auto chase = [&](uint64_t ChaseCounts::*field) {
    Samples s;
    for (const ChaseCounts& c : tally.chases) {
      s.Add(static_cast<double>(c.*field));
    }
    return s.Median();
  };
  ms("quality.build_program", "quality.build_program_ms");
  ms("datalog.program_analysis", "datalog.program_analysis_ms");
  ms("core.referential", "core.referential_ms");
  ms("analysis.lint", "analysis.lint_ms");
  ms("analysis.edb_stats", "analysis.edb_stats_ms");
  ms("qa.planner", "qa.planner_ms");
  ms("quality.prepare", "quality.prepare_ms");
  ms("datalog.load", "datalog.load_ms");
  ms("datalog.chase", "datalog.chase_ms");
  ms("datalog.constraints", "datalog.constraints_ms");
  ms("datalog.instance_stats", "datalog.instance_stats_ms");
  count("datalog.rounds", chase(&ChaseCounts::rounds), "count");
  count("datalog.tgd_firings", chase(&ChaseCounts::tgd_firings), "count");
  count("datalog.facts_added", chase(&ChaseCounts::facts_added), "count");
  count("datalog.nulls_created", chase(&ChaseCounts::nulls_created), "count");
  count("datalog.egd_merges", chase(&ChaseCounts::egd_merges), "count");
  count("datalog.total_facts", chase(&ChaseCounts::total_facts), "count");
  {
    Samples per_firing;
    for (const ChaseCounts& c : tally.chases) {
      if (c.tgd_firings > 0) {
        per_firing.Add(static_cast<double>(c.facts_added) /
                       static_cast<double>(c.tgd_firings));
      }
    }
    count("datalog.facts_per_firing", per_firing.Median(), "ratio");
  }
  ms("quality.apply_update", "quality.apply_update_ms");
  count("datalog.extend_fallbacks",
        static_cast<double>(tally.extend_fallbacks), "count");
  ms("quality.readoff", "quality.readoff_ms");
  ms("quality.measure", "quality.measure_ms");
  ms("quality.render", "quality.render_ms");
  count("quality.report_bytes", tally.report_bytes.Median(), "bytes");
  us("quality.query_prepare", "quality.query_prepare_us");
  us("quality.query_answer", "quality.query_answer_us");
  count("datalog.rows_per_answer",
        tally.answers > 0 ? static_cast<double>(tally.rows_tried) /
                                static_cast<double>(tally.answers)
                          : 0,
        "ratio");
  us("serve.connect", "serve.connect_us");
  us("serve.report", "serve.report_us");
  count("serve.shed", static_cast<double>(tally.shed), "count");
  count("serve.retries", static_cast<double>(tally.retries), "count");
  count("serve.update_fallbacks", static_cast<double>(tally.update_fallbacks),
        "count");
  count("serve.internal_errors", static_cast<double>(tally.internal_errors),
        "count");
  count("trace.coverage", trace.Coverage(tally.op_kinds), "ratio");
  {
    // The first op kind is the one the untraced twin times. Traced runs
    // read 0.94-1.02; with fewer than 20 ops a side, as in a smoke run,
    // the ratio of medians is noise and is not gated.
    const Samples traced = tally.op_kinds.empty()
                               ? Samples()
                               : trace.OpMs(tally.op_kinds[0]);
    const double untraced = tally.untraced_op_ms.Median();
    const double overhead = untraced > 0 ? traced.Median() / untraced : 0;
    count("trace.overhead", overhead, "ratio");
    if (traced.size() >= 20 && tally.untraced_op_ms.size() >= 20 &&
        (overhead < 0.8 || overhead > 1.25)) {
      gates->Fail("trace.overhead " + std::to_string(overhead) +
                  " is outside [0.8, 1.25]: the traced replica no longer "
                  "matches the call it stands for");
    }
  }
  return out;
}

void EndToEndMetrics(const EndToEnd& e2e, const char* op_name,
                     WorkloadResult* result) {
  const double op_p50 = e2e.op_ms.Quantile(0.5);
  const double op_p90 = e2e.op_ms.Quantile(0.9);
  const double read_p50 = e2e.read_us.Quantile(0.5);
  const double read_p90 = e2e.read_us.Quantile(0.9);
  const double setup = e2e.setup_s.Median();
  const double throughput =
      e2e.busy_s > 0 ? static_cast<double>(e2e.ops_completed) / e2e.busy_s : 0;
  result->metrics = {
      {"setup_s", setup, "s"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
      {"op_ms_p50", op_p50, "ms"},
      {"op_ms_p90", op_p90, "ms"},
      {"read_us_p50", read_p50, "us"},
      {"read_us_p90", read_p90, "us"},
      {"throughput_per_s", throughput, "1/s"},
  };
  const std::string op = op_name;
  result->report = {
      {"setup_s", setup, "s"},
      {"setup_samples", static_cast<double>(e2e.setup_s.size()), "count"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
      {op + "_ms_p50", op_p50, "ms"},
      {op + "_ms_p90", op_p90, "ms"},
      {op + "_samples", static_cast<double>(e2e.op_ms.size()), "count"},
      {"read_us_p50", read_p50, "us"},
      {"read_us_p90", read_p90, "us"},
      {"read_samples", static_cast<double>(e2e.read_us.size()), "count"},
      {"throughput_per_s", throughput, "1/s"},
  };
}

void FinishGates(const Gates& gates, WorkloadResult* result) {
  result->attempted += gates.attempted();
  result->failed += gates.failed();
  for (const std::string& m : gates.messages()) result->messages.push_back(m);
}

}  // namespace mdqa::perfbench
