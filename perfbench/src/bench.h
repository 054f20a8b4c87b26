// Shared pieces of the LS3DF benchmark driver: the command line, the
// result record printed as the last line of standard output, order
// statistics, and the span recorder of the traced runs.
//
// Spans are recorded by this driver around its own calls into the
// library's public functions; nothing inside the library is timed by
// them. They live in memory for the whole run and are written out once,
// when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for snapshots and the trace file
};

// Seconds on the steady clock since the first call in this process.
double now_s();

// One run's verdict and metrics. A metric is only added when it was
// measured; there are no placeholder zeros.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Records a failed output check (counted by the caller in `failed`).
  void check(bool ok, const std::string& what);
  long attempted = 0;
  long failed = 0;
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Order statistics. quantile() interpolates linearly between order
// statistics (q in [0, 1]); median() is quantile(v, 0.5).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Span recorder. One recorder per run; spans nest through an explicit
// stack, so only the driver thread records.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}
  int open(const std::string& name);
  void close(int id);
  // Durations (seconds) of every closed span with this name, in order.
  std::vector<double> durations(const std::string& name) const;
  // Writes {"run":..., "spans":[{"name","start_s","end_s","parent"}]}.
  bool write(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    double start = 0, end = -1;
    int parent = -1;
  };
  std::uint64_t run_id_;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, const std::string& name)
      : t_(t), id_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// Workload entry points (one per BENCHMARK.json workload).
Report run_alloy_scf(const Args& a);
Report run_chain_sharded(const Args& a);

// The service stream probe of the traced chain_sharded run: adds the
// service.* and checkpoint.* per-layer metrics and checks every job.
void run_service_probe(const Args& a, Tracer& tr, Report& rep);

}  // namespace perfbench
