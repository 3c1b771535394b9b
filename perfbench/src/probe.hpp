// Measurement plumbing shared by the benchmark workloads: clocks, resource
// usage, the result record printed as the final JSON line, and the span
// recorder used by traced runs.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t wall_ns();
/// CPU time consumed by the whole process (all threads), in nanoseconds.
std::int64_t process_cpu_ns();
/// CPU time consumed by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

double median(std::vector<double> values);

/// A commit latency and the time its value was ordered (seconds on the
/// workload's clock: simulated on `sim_*`, the reactor's on the runtime).
struct TimedLatency {
    double at_s = 0.0;
    double ms = 0.0;
};

/// The per-second-median p99: the samples are split into one-second slices
/// by the time their value was ordered, counted from `origin_s`; every slice
/// holding at least kMinSliceSamples gives its 99th percentile, and the
/// median of those is returned (0 when no slice qualifies). A scheduling
/// stall of the host lands in one slice and leaves it alone, but so does
/// any tail confined to fewer than half the slices; the window p99 is
/// reported next to it for that reason.
inline constexpr std::size_t kMinSliceSamples = 100;
double sec_median_p99(const std::vector<TimedLatency>& samples, double origin_s);

/// num / den, or 0 when nothing was counted in the denominator.
inline double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up is timed over repeated builds so its median is steady even when
/// one build takes well under a millisecond: at least 5 builds, then more
/// until 1 s of wall time has gone into them (at most 500). Builds on a cold
/// heap take several times longer than builds that reuse freed pages (the
/// first ~60 runtime builds of a process), so the count must stay well
/// above them.
inline bool more_setups(int done, std::int64_t first_started_ns) {
    if (done < 5) return true;
    return done < 500 && wall_ns() - first_started_ns < 1'000'000'000;
}

/// Metric values by name. Units, and the names a workload must report, come
/// from BENCHMARK.json: run.py attaches the units, fails a run that lacks an
/// end-to-end metric and reports 0 for a per-layer metric that does not
/// apply to the workload.
using MetricValues = std::map<std::string, double>;

/// One benchmark run's outcome. `correct` is false when an output check
/// failed; `attempted`/`failed` count client values of the measured phase.
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricValues metrics;
    /// Human-readable lines printed before the JSON result (check failures,
    /// failure accounting, tracing notes).
    std::vector<std::string> notes;

    void fail_check(const std::string& why) {
        correct = false;
        notes.push_back("CHECK FAILED: " + why);
    }
};

/// Keeps the calling thread's CPU from going idle while the thread sleeps.
/// Pins the thread to the CPU it is running on and starts a thread of the
/// idle scheduling class (SCHED_IDLE) spinning on that CPU; the scheduler
/// runs it only when nothing else is runnable there and preempts it as soon
/// as the pinned thread wakes. On a virtual machine the host deschedules an
/// idle virtual CPU, and waking it again took several milliseconds while
/// the host was busy. That delay, not the program, then set the runtime's
/// latency tail (p99 3-11 ms without, 2.7-2.9 ms with, in alternating runs).
/// The program still sleeps and wakes when it asks to. The destructor stops
/// and joins the spinner and restores the thread's CPU affinity. When the
/// idle class cannot be set, nothing spins (active() is false).
class IdleSpinner {
public:
    IdleSpinner();
    ~IdleSpinner();
    IdleSpinner(const IdleSpinner&) = delete;
    IdleSpinner& operator=(const IdleSpinner&) = delete;

    bool active() const { return active_.load(); }
    int cpu() const { return cpu_; }

private:
    cpu_set_t saved_affinity_{};
    bool pinned_ = false;
    int cpu_ = -1;
    std::atomic<bool> active_{false};
    std::atomic<bool> stop_{false};
    std::thread spinner_;  // declared last: it uses the members above
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// Where traced runs write their span dumps, relative to the working
/// directory (the repository root).
inline constexpr const char* kSpanDir = ".bench_build/spans";

/// Records nested spans: a span opened while another is open becomes its
/// child. Keeps per-name totals (count, inclusive and self time) for every
/// span recorded while enabled, and the first kCapacity of those spans for
/// the dump written at the end of the run.
class SpanRecorder {
public:
    struct Totals {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };
    struct Span {
        std::uint16_t name = 0;
        std::int32_t parent = -1;  ///< index into spans(), -1 = root or not kept
        std::int64_t instance = -1;  ///< Paxos instance, -1 when none
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    /// Spans kept for the dump; totals cover every span regardless.
    static constexpr std::size_t kCapacity = 200'000;

    /// Interns a span name; returns its id.
    std::uint16_t name_id(const std::string& name);

    void set_enabled(bool on) { enabled_ = on; }

    void open(std::uint16_t name, std::int64_t instance = -1);
    void close();

    Totals totals(const std::string& name) const;
    std::uint64_t dropped() const { return dropped_; }

    /// Writes the kept spans as TSV (index, parent, name, instance, start_ns,
    /// end_ns; times relative to the first kept span). Returns false when
    /// the file cannot be written.
    bool write_tsv(const std::string& path) const;

private:
    struct Frame {
        std::uint16_t name;
        bool recorded;
        std::int32_t index;
        std::int64_t start_ns;
        std::int64_t child_ns;
    };

    bool enabled_ = false;
    std::vector<std::string> names_;
    std::vector<Totals> totals_;
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/// RAII span on a recorder (no-op for a null recorder).
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* rec, std::uint16_t name, std::int64_t instance = -1)
        : rec_(rec) {
        if (rec_ != nullptr) rec_->open(name, instance);
    }
    ~ScopedSpan() {
        if (rec_ != nullptr) rec_->close();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder* rec_;
};

RunResult run_sim_semantic_n53(const Options& opt);
RunResult run_sim_sharded_failover(const Options& opt);
RunResult run_runtime_udp_n5(const Options& opt);

}  // namespace perfbench
