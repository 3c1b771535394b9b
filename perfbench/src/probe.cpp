#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>

#include "stats/histogram.hpp"

namespace perfbench {

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t process_cpu_ns() {
    // The scheduler's precise runtime. getrusage's user/sys split is
    // tick-sampled and rescaled, which skews deltas over a few seconds.
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double sec_median_p99(const std::vector<TimedLatency>& samples, double origin_s) {
    std::vector<gossipc::Histogram> slices;
    for (const TimedLatency& t : samples) {
        if (t.at_s < origin_s) continue;
        const auto k = static_cast<std::size_t>(t.at_s - origin_s);
        if (k >= slices.size()) slices.resize(k + 1);
        slices[k].add(t.ms);
    }
    std::vector<double> p99s;
    for (const gossipc::Histogram& h : slices) {
        if (h.count() >= kMinSliceSamples) p99s.push_back(h.percentile(99));
    }
    return p99s.empty() ? 0.0 : median(p99s);
}

IdleSpinner::IdleSpinner() {
    cpu_ = sched_getcpu();
    if (cpu_ < 0 || sched_getaffinity(0, sizeof saved_affinity_, &saved_affinity_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) return;
    pinned_ = true;
    std::atomic<bool> ready{false};
    spinner_ = std::thread([this, &ready] {  // inherits the pinning
        sched_param param{};
        const bool idle_class = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
        active_.store(idle_class);
        ready.store(true);
        if (!idle_class) return;  // a normal-priority spinner would compete
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    });
    while (!ready.load()) std::this_thread::yield();
}

IdleSpinner::~IdleSpinner() {
    stop_.store(true);
    if (spinner_.joinable()) spinner_.join();
    if (pinned_) sched_setaffinity(0, sizeof saved_affinity_, &saved_affinity_);
}

std::uint16_t SpanRecorder::name_id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<std::uint16_t>(names_.size() - 1);
}

void SpanRecorder::open(std::uint16_t name, std::int64_t instance) {
    Frame f{name, enabled_, -1, wall_ns(), 0};
    if (f.recorded) {
        if (spans_.size() < kCapacity) {
            f.index = static_cast<std::int32_t>(spans_.size());
            const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
            spans_.push_back(Span{name, parent, instance, f.start_ns, 0});
        } else {
            ++dropped_;
        }
    }
    stack_.push_back(f);
}

void SpanRecorder::close() {
    const std::int64_t end = wall_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start_ns;
    if (f.recorded) {
        Totals& t = totals_[f.name];
        ++t.count;
        t.total_ns += dur;
        t.self_ns += dur - f.child_ns;
        if (f.index >= 0) spans_[static_cast<std::size_t>(f.index)].end_ns = end;
    }
    if (!stack_.empty()) stack_.back().child_ns += dur;
}

SpanRecorder::Totals SpanRecorder::totals(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return totals_[i];
    }
    return Totals{};
}

bool SpanRecorder::write_tsv(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "index\tparent\tname\tinstance\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << i << '\t' << s.parent << '\t' << names_[s.name] << '\t' << s.instance << '\t'
           << (s.start_ns - origin) << '\t' << (s.end_ns - origin) << '\n';
    }
    return static_cast<bool>(os);
}

}  // namespace perfbench
