// The two simulator workloads. Each run builds the deployment several times
// (set-up time), then drives one full simulated window per pass. Untraced
// runs repeat passes until --seconds of wall time are spent; every pass of
// a run uses the same seed, so its simulated results must repeat exactly,
// which the run checks. A traced run makes one untraced pass (the reference
// for tracing overhead) and one pass stepping the simulator event by event.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "probe.hpp"

namespace perfbench {
namespace {

using namespace gossipc;

/// Traced passes sample every node's CPU backlog every this many events.
constexpr std::uint64_t kBacklogSampleEvents = 4096;

struct SimSpec {
    ExperimentConfig cfg;
    /// Permanent crash of `crash_process` at this time (failover workload).
    std::optional<SimTime> crash_at;
    ProcessId crash_process = 0;
};

struct Pass {
    std::vector<double> setup_s;
    double run_wall_s = 0.0;
    double run_cpu_s = 0.0;
    double simulated_s = 0.0;
    std::uint64_t ordered = 0;  ///< values ordered over the whole pass

    // Deterministic (simulated) results.
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p99_sec_median_ms = 0.0;
    double max_ms = 0.0;
    std::size_t latency_samples = 0;
    double goodput = 0.0;
    std::uint64_t attempted = 0;  ///< window submissions by clients on live hosts
    std::uint64_t unordered = 0;  ///< ... never ordered
    std::uint64_t lost_to_crash = 0;
    double outage_ms = 0.0;
    MetricValues layer;  ///< per-layer counts and ratios
    std::string signature;

    // Traced pass only.
    std::int64_t delivery_ns = 0;
    std::int64_t callback_ns = 0;
    std::uint64_t delivery_steps = 0;
    std::uint64_t callback_steps = 0;
    std::int64_t probe_ns = 0;
    double backlog_ms_sum = 0.0;
    std::uint64_t backlog_samples = 0;

    std::vector<std::string> check_failures;
};

/// Every live learner's delivered sequence of each group must be a prefix of
/// one common sequence, and no client value may appear twice in it.
void check_agreement(Deployment& d, Pass& pass) {
    const int n = d.config().n;
    for (GroupId g = 0; g < d.groups(); ++g) {
        ProcessId ref = -1;
        for (ProcessId p = 0; p < n; ++p) {
            if (d.network().node(p).crashed()) continue;
            if (ref < 0 ||
                d.process(p, g).learner().frontier() > d.process(ref, g).learner().frontier()) {
                ref = p;
            }
        }
        const Learner& rl = d.process(ref, g).learner();
        if (rl.frontier() <= 1) {
            pass.check_failures.push_back("group " + std::to_string(g) + " decided nothing");
            continue;
        }
        std::set<ValueId> seen;
        for (InstanceId i = 1; i < rl.frontier(); ++i) {
            const std::optional<Value> v = rl.decided_value(i);
            if (!v) {
                pass.check_failures.push_back("group " + std::to_string(g) + " instance " +
                                              std::to_string(i) + " has no value at p" +
                                              std::to_string(ref));
                return;
            }
            const auto note = [&](const Value& plain) {
                if (!seen.insert(plain.id).second) {
                    pass.check_failures.push_back("value ordered twice in group " +
                                                  std::to_string(g));
                }
            };
            if (v->is_batch()) {
                for (const Value& c : v->batch) note(c);
            } else {
                note(*v);
            }
        }
        for (ProcessId p = 0; p < n; ++p) {
            if (p == ref || d.network().node(p).crashed()) continue;
            const Learner& l = d.process(p, g).learner();
            for (InstanceId i = 1; i < l.frontier(); ++i) {
                if (l.decided_digest(i) != rl.decided_digest(i)) {
                    pass.check_failures.push_back(
                        "group " + std::to_string(g) + " instance " + std::to_string(i) +
                        ": p" + std::to_string(p) + " disagrees with p" + std::to_string(ref));
                    break;
                }
            }
        }
    }
}

/// Detector timings from the deployment's merged fault log, whose failover
/// lines read "<ns> suspect p<subject> by p<observer>[ g<group>]" and
/// "<ns> takeover p<id> round <r>[ g<group>]".
void detector_metrics(const ExperimentResult& r, const SimSpec& spec, MetricValues& out) {
    const std::int64_t crash_ns = spec.crash_at ? spec.crash_at->as_nanos() : -1;
    std::optional<std::int64_t> first_suspect;
    std::optional<std::int64_t> first_takeover;
    std::set<std::string> false_suspicions;  // one per (time, subject, observer)
    for (const std::string& line : r.fault_log) {
        std::istringstream is(line);
        std::int64_t ns = 0;
        std::string verb;
        is >> ns >> verb;
        if (verb == "suspect") {
            std::string subject, by, observer;
            is >> subject >> by >> observer;
            const bool true_suspicion = spec.crash_at && ns >= crash_ns &&
                                        subject == "p" + std::to_string(spec.crash_process);
            if (true_suspicion) {
                if (!first_suspect) first_suspect = ns;
            } else {
                false_suspicions.insert(std::to_string(ns) + subject + observer);
            }
        } else if (verb == "takeover" && spec.crash_at && ns >= crash_ns) {
            const bool group0 = spec.cfg.groups == 1 || line.ends_with(" g0");
            if (group0 && !first_takeover) first_takeover = ns;
        }
    }
    out["detect.suspect_ms"] = first_suspect ? (*first_suspect - crash_ns) / 1e6 : 0.0;
    out["detect.takeover_ms"] = first_takeover ? (*first_takeover - crash_ns) / 1e6 : 0.0;
    out["detect.false_suspicions"] = static_cast<double>(false_suspicions.size());
}

Pass run_pass(const SimSpec& spec, bool traced) {
    Pass pass;
    std::unique_ptr<Deployment> d;
    const std::int64_t setup_start = wall_ns();
    for (int k = 0; more_setups(k, setup_start); ++k) {
        d.reset();
        const std::int64_t t0 = wall_ns();
        d = std::make_unique<Deployment>(spec.cfg);
        d->start_processes();
        pass.setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    }
    Simulator& sim = d->simulator();
    const int n = spec.cfg.n;

    // Each client latency sample with its decision time, for the
    // per-second p99, and group-0 deliveries at live nodes after the crash,
    // for the outage. The listeners replace the workload's own, so they
    // forward to the clients attached to the node exactly as the workload
    // does.
    std::vector<TimedLatency> decided;
    std::vector<std::int64_t> g0_after_crash;
    const std::optional<SimTime> crash_at = spec.crash_at;
    for (ProcessId id = 0; id < n; ++id) {
        std::vector<Client*> attached;
        for (const auto& c : d->workload().clients()) {
            if (c->attached_process() == id) attached.push_back(c.get());
        }
        const bool live = !crash_at || id != spec.crash_process;
        for (GroupId g = 0; g < d->groups(); ++g) {
            d->process(id, g).set_delivery_listener(
                [attached, g, live, crash_at, &decided, &g0_after_crash](
                    InstanceId, const Value& value, CpuContext& ctx) {
                    for (Client* c : attached) {
                        const std::size_t samples = c->latencies().count();
                        c->on_decision(value, ctx.now());
                        if (c->latencies().count() != samples) {
                            decided.push_back(
                                {ctx.now().as_seconds(), c->latencies().samples().back()});
                        }
                    }
                    if (crash_at && g == 0 && live && ctx.now() >= *crash_at) {
                        g0_after_crash.push_back(ctx.now().as_nanos());
                    }
                });
        }
    }

    d->workload().start();
    const SimTime end = d->workload().total_duration();
    // The end marker lets the traced loop stop where run_until would; both
    // modes schedule it so their event sequences are identical.
    bool reached_end = false;
    sim.schedule_at(end, [&reached_end] { reached_end = true; });

    // The invariant probe (`check` layer) runs every invariant_probe_events
    // events. The traced loop runs it itself, so its time is kept out of the
    // lanes and reported on its own.
    check::InvariantChecker* const invariants = d->invariants();
    const std::uint64_t probe_every = spec.cfg.invariant_probe_events;
    if (invariants == nullptr) throw std::runtime_error("the invariant probe is not built in");
    if (traced) sim.set_probe(0, nullptr);

    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t wall0 = wall_ns();
    if (!traced) {
        sim.run_until(end);
    } else {
        std::uint64_t steps = 0;
        while (!reached_end) {
            const std::uint64_t deliveries = sim.deliveries_executed();
            const std::uint64_t callbacks = sim.callbacks_executed();
            const std::int64_t t0 = wall_ns();
            if (!sim.step()) break;
            const std::int64_t dt = wall_ns() - t0;
            if (sim.deliveries_executed() != deliveries) {
                pass.delivery_ns += dt;
                ++pass.delivery_steps;
            } else if (sim.callbacks_executed() != callbacks) {
                pass.callback_ns += dt;
                ++pass.callback_steps;
            }
            if (sim.events_executed() % probe_every == 0) {
                const std::int64_t p0 = wall_ns();
                invariants->run_all();
                pass.probe_ns += wall_ns() - p0;
            }
            if (++steps % kBacklogSampleEvents == 0) {
                for (ProcessId p = 0; p < n; ++p) {
                    pass.backlog_ms_sum += d->network().node(p).backlog().as_millis();
                }
                pass.backlog_samples += static_cast<std::uint64_t>(n);
            }
        }
        sim.run_until(end);  // same-instant events queued behind the marker
    }
    pass.run_wall_s = static_cast<double>(wall_ns() - wall0) / 1e9;
    pass.run_cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
    pass.simulated_s = end.as_seconds();

    const ExperimentResult r = d->collect();
    check_agreement(*d, pass);

    const Workload::Result& w = r.workload;
    pass.p50_ms = w.latencies.percentile(50);
    pass.p99_ms = w.latencies.percentile(99);
    pass.p99_sec_median_ms = sec_median_p99(decided, spec.cfg.warmup.as_seconds());
    pass.max_ms = w.latencies.max();
    pass.latency_samples = w.latencies.count();
    pass.goodput = w.throughput;
    for (const auto& c : d->workload().clients()) {
        pass.ordered += c->counts().completed;
        if (spec.crash_at && c->attached_process() == spec.crash_process) {
            pass.lost_to_crash += c->not_ordered_in_window();
        } else {
            pass.attempted += c->counts().submitted_in_window;
            pass.unordered += c->not_ordered_in_window();
        }
    }
    if (spec.crash_at) {
        // Service is back at the end of the longest silence after the crash
        // (decisions already in flight at the crash can still land first).
        std::sort(g0_after_crash.begin(), g0_after_crash.end());
        std::int64_t prev = spec.crash_at->as_nanos();
        std::int64_t longest = -1;
        std::int64_t resumed = prev;
        for (const std::int64_t t : g0_after_crash) {
            if (t - prev > longest) {
                longest = t - prev;
                resumed = t;
            }
            prev = t;
        }
        if (longest < 0) {
            pass.check_failures.push_back("group 0 never resumed after the crash");
        }
        pass.outage_ms = static_cast<double>(resumed - spec.crash_at->as_nanos()) / 1e6;
    }

    MetricsRegistry& reg = d->metrics();
    const auto cnt = [&reg](const char* name) {
        return static_cast<double>(reg.counter(name).value);
    };
    const double ops = static_cast<double>(pass.ordered);
    MetricValues& m = pass.layer;
    m["sim.events_per_op"] = per(cnt("sim.events"), ops);
    m["sim.queue_depth_max"] = static_cast<double>(sim.max_pending_events());
    m["net.arrivals_per_op"] = per(cnt("net.arrivals"), ops);
    m["net.bytes_per_op"] = per(cnt("net.bytes_sent"), ops);
    m["net.coordinator_arrivals_per_op"] = per(cnt("net.coordinator_arrivals"), ops);
    m["net.queue_drops"] = cnt("net.queue_drops");
    m["gossip.dup_frac"] = per(cnt("gossip.duplicates"), cnt("gossip.messages_received"));
    m["gossip.envelopes_per_op"] = per(cnt("gossip.envelopes_sent"), ops);
    m["gossip.send_queue_drops"] = cnt("gossip.send_queue_drops");
    m["semantic.filtered_per_op"] = per(cnt("semantic.filtered_phase2b"), ops);
    m["semantic.merged_per_op"] = per(cnt("semantic.messages_merged"), ops);
    m["paxos.msgs_per_op"] = per(cnt("paxos.messages_handled"), ops);
    double proposals = 0.0;
    double retransmissions = cnt("paxos.value_retransmissions");
    for (const PaxosProcess* p : d->process_ptrs()) {
        if (const Coordinator* c = p->coordinator()) {
            proposals += static_cast<double>(c->counters().proposals);
            retransmissions += static_cast<double>(c->counters().retransmissions);
        }
    }
    // Values per proposed instance: composites carry batched_values, every
    // other proposal one value.
    m["paxos.values_per_batch"] =
        per(proposals - cnt("paxos.batches_proposed") + cnt("paxos.batched_values"), proposals);
    m["paxos.retransmissions"] = retransmissions;
    m["paxos.values_shed"] = cnt("paxos.values_shed");
    // Instances decided per group, as far as any live node has learned them
    // (a group's home coordinator may be the crashed node).
    double decided_sum = 0.0;
    double decided_min = -1.0;
    for (GroupId g = 0; g < d->groups(); ++g) {
        double decided = 0.0;
        for (ProcessId p = 0; p < n; ++p) {
            if (d->network().node(p).crashed()) continue;
            decided = std::max(
                decided, static_cast<double>(d->process(p, g).learner().delivered_count()));
        }
        decided_sum += decided;
        if (decided_min < 0.0 || decided < decided_min) decided_min = decided;
    }
    m["group.decided_balance"] = per(decided_min, decided_sum / d->groups());
    m["group.unroutable"] = cnt("group.unroutable");
    detector_metrics(r, spec, m);

    // Everything the simulation decided; passes of one seed must agree.
    std::ostringstream sig;
    sig.precision(17);
    sig << pass.p50_ms << ' ' << pass.p99_ms << ' ' << pass.p99_sec_median_ms << ' '
        << pass.latency_samples << ' '
        << pass.goodput << ' ' << pass.ordered << ' ' << pass.attempted << ' '
        << pass.unordered << ' ' << pass.lost_to_crash << ' ' << pass.outage_ms << ' '
        << cnt("sim.events") << ' ' << cnt("net.arrivals") << ' ' << cnt("net.bytes_sent");
    for (const std::string& line : r.fault_log) sig << '|' << line;
    pass.signature = sig.str();
    return pass;
}

RunResult run_sim(const SimSpec& spec, const Options& opt) {
    RunResult out;
    std::vector<Pass> passes;
    const std::int64_t start = wall_ns();
    do {
        passes.push_back(run_pass(spec, /*traced=*/false));
    } while (!opt.trace && static_cast<double>(wall_ns() - start) / 1e9 < opt.seconds);
    std::optional<Pass> traced;
    if (opt.trace) traced = run_pass(spec, /*traced=*/true);

    const Pass& first = passes.front();
    for (const Pass& p : passes) {
        for (const std::string& f : p.check_failures) out.fail_check(f);
        if (p.signature != first.signature) {
            out.fail_check("simulated results differ between passes of one seed");
        }
    }
    if (traced) {
        for (const std::string& f : traced->check_failures) out.fail_check(f);
        if (traced->signature != first.signature) {
            out.fail_check("the traced pass changed the simulated results");
        }
    }
    if (first.latency_samples < 1000) {
        out.fail_check("only " + std::to_string(first.latency_samples) +
                       " latency samples in the window (p99 needs >= 1000)");
    }
    out.attempted = first.attempted;
    out.failed = first.unordered;

    // Every pass does the same work, and load from outside the process can
    // only slow a pass down, so the fastest pass is the estimate of its cost.
    std::vector<double> setup;
    double cpu_us_per_op = -1.0;
    double sim_wall_per_s = -1.0;
    for (const Pass& p : passes) {
        setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
        const double cpu = per(p.run_cpu_s * 1e6, static_cast<double>(p.ordered));
        const double wall = p.run_wall_s / p.simulated_s;
        if (cpu_us_per_op < 0.0 || cpu < cpu_us_per_op) cpu_us_per_op = cpu;
        if (sim_wall_per_s < 0.0 || wall < sim_wall_per_s) sim_wall_per_s = wall;
    }
    const double unordered_frac =
        per(static_cast<double>(first.unordered), static_cast<double>(first.attempted));

    char note[384];
    std::snprintf(note, sizeof note,
                  "passes=%zu window_samples=%zu p99_ms=%.3f max_ms=%.1f attempted=%llu "
                  "unordered=%llu "
                  "lost_to_crash=%llu unordered_frac=%.6f net_queue_drops=%.0f "
                  "gossip_send_queue_drops=%.0f values_shed=%.0f sim_wall_per_s=%.4f",
                  passes.size(), first.latency_samples, first.p99_ms, first.max_ms,
                  static_cast<unsigned long long>(first.attempted),
                  static_cast<unsigned long long>(first.unordered),
                  static_cast<unsigned long long>(first.lost_to_crash), unordered_frac,
                  first.layer.at("net.queue_drops"), first.layer.at("gossip.send_queue_drops"),
                  first.layer.at("paxos.values_shed"), sim_wall_per_s);
    out.notes.push_back(note);

    if (!opt.trace) {
        out.metrics = {
            {"commit_p50_ms", first.p50_ms},
            {"commit_p99_sec_median_ms", first.p99_sec_median_ms},
            {"goodput_ops", first.goodput},
            {"cpu_us_per_op", cpu_us_per_op},
            {"setup_s", median(setup)},
            {"peak_rss_mb", peak_rss_mb()},
        };
        return out;
    }

    const Pass& t = *traced;
    MetricValues m = first.layer;
    m["commit_p99_ms"] = first.p99_ms;
    m["sim_wall_per_s"] = sim_wall_per_s;
    m["outage_ms"] = first.outage_ms;
    m["unordered_frac"] = unordered_frac;
    m["lost_to_crash"] = static_cast<double>(first.lost_to_crash);
    m["sim.delivery_step_ns"] = per(static_cast<double>(t.delivery_ns),
                                    static_cast<double>(t.delivery_steps));
    m["sim.callback_step_ns"] = per(static_cast<double>(t.callback_ns),
                                    static_cast<double>(t.callback_steps));
    m["net.cpu_backlog_ms"] = per(t.backlog_ms_sum, static_cast<double>(t.backlog_samples));
    m["check.probe_ns"] = per(static_cast<double>(t.probe_ns), static_cast<double>(t.ordered));
    m["trace.overhead_wall_per_s"] = t.run_wall_s / t.simulated_s - sim_wall_per_s;
    m["trace.overhead_cpu_us_per_op"] =
        per(t.run_cpu_s * 1e6, static_cast<double>(t.ordered)) - cpu_us_per_op;
    out.metrics = std::move(m);
    return out;
}

}  // namespace

RunResult run_sim_semantic_n53(const Options& opt) {
    // The semantic ablation's near-Gossip-knee point: gossip and semantic
    // work dominate. One group, no batching, no faults.
    SimSpec spec;
    ExperimentConfig& c = spec.cfg;
    c.setup = Setup::SemanticGossip;
    c.n = 53;
    c.num_clients = 13;
    c.total_rate = 416.0;
    c.overlay_seed = 39;  // the n=53 overlay with the median coordinator RTT
    c.warmup = SimTime::seconds(0.5);
    c.measure = SimTime::seconds(2.5);  // 1040 window values at 416/s
    c.drain = SimTime::seconds(0.5);  // the slowest window value takes ~400 ms
    c.seed = opt.seed;
    return run_sim(spec, opt);
}

RunResult run_sim_sharded_failover(const Options& opt) {
    // Baseline (no gossip layer) sharded over 8 groups with batching, at
    // about half the 8-group saturation knee; group 0's coordinator dies
    // permanently mid-window.
    SimSpec spec;
    ExperimentConfig& c = spec.cfg;
    c.setup = Setup::Baseline;
    c.n = 13;
    c.num_clients = 13;
    c.groups = 8;
    c.batch_size = 8;
    c.failover = true;
    c.total_rate = 40000.0;
    c.warmup = SimTime::seconds(0.5);
    c.measure = SimTime::seconds(2.0);
    c.drain = SimTime::seconds(1.0);
    c.seed = opt.seed;
    spec.crash_at = SimTime::seconds(1.5);
    spec.crash_process = 0;
    c.faults.crash(*spec.crash_at, spec.crash_process);
    return run_sim(spec, opt);
}

}  // namespace perfbench
