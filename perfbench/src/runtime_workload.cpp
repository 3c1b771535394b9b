// runtime_udp_n5: five nodes in one process on one Reactor thread, each a
// real loopback UdpChannel -> UdpLink -> RealTransport (Gossip mode, Paxos
// semantic hooks) -> PaxosProcess, with one open-loop client per node.
//
// Part 1 is a fixed 2000 ops/s point (the end-to-end numbers). Part 2, in
// traced runs only, is a rate ladder that stops at the first rate whose p99
// exceeds 20 ms or which leaves a value unordered by its step deadline.
// Traced runs then repeat the fixed point on a fresh cluster with the
// benchmark's span decorators at every public seam.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/process.hpp"
#include "probe.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/tcp.hpp"
#include "runtime/udp.hpp"
#include "runtime/udp_link.hpp"
#include "semantic/paxos_semantics.hpp"
#include "stats/histogram.hpp"

namespace perfbench {
namespace {

using namespace gossipc;
using namespace gossipc::runtime;

constexpr int kNodes = 5;
constexpr double kFixedRate = 2000.0;
constexpr SimTime kWarmup = SimTime::millis(500);
constexpr double kP99LimitMs = 20.0;
/// Wait for stragglers after the last submission of a phase. Anything still
/// unordered then counts as failed.
constexpr SimTime kDrainDeadline = SimTime::seconds(2);
constexpr SimTime kLadderStep = SimTime::seconds(1);
constexpr SimTime kLadderDeadline = SimTime::millis(500);
constexpr double kLadderRates[] = {2000, 2500, 3150, 4000, 5000, 6300,
                                   8000, 10000, 12500, 16000, 20000};

/// Paxos instance a message is about, -1 when it has none.
std::int64_t instance_of(const MessageBody& body) {
    if (body.kind() != BodyKind::Paxos) return -1;
    const auto& pm = static_cast<const PaxosMessage&>(body);
    switch (pm.type()) {
        case PaxosMsgType::Phase2a: return static_cast<const Phase2aMsg&>(pm).instance();
        case PaxosMsgType::Phase2b: return static_cast<const Phase2bMsg&>(pm).instance();
        case PaxosMsgType::Phase2bAggregate:
            return static_cast<const Phase2bAggregateMsg&>(pm).instance();
        case PaxosMsgType::Decision: return static_cast<const DecisionMsg&>(pm).instance();
        case PaxosMsgType::LearnRequest:
            return static_cast<const LearnRequestMsg&>(pm).instance();
        case PaxosMsgType::ClientValue:
        case PaxosMsgType::Phase1a:
        case PaxosMsgType::Phase1b:
        case PaxosMsgType::Heartbeat:
        case PaxosMsgType::GroupBatch:
            return -1;
    }
    return -1;
}

// ---- Tracing decorators, one per public seam ------------------------------

struct SpanIds {
    explicit SpanIds(SpanRecorder& r)
        : udp_send(r.name_id("udp.send")),
          udp_recv(r.name_id("udp.recv")),
          link_send(r.name_id("link.send_body")),
          transport_rx(r.name_id("transport.rx")),
          hooks_validate(r.name_id("hooks.validate")),
          hooks_aggregate(r.name_id("hooks.aggregate")),
          hooks_disaggregate(r.name_id("hooks.disaggregate")),
          hooks_deliver(r.name_id("hooks.on_deliver")),
          transport_broadcast(r.name_id("transport.broadcast")),
          transport_send(r.name_id("transport.send")),
          paxos_handle(r.name_id("paxos.handle")),
          listener(r.name_id("listener")) {}
    std::uint16_t udp_send, udp_recv, link_send, transport_rx, hooks_validate,
        hooks_aggregate, hooks_disaggregate, hooks_deliver, transport_broadcast,
        transport_send, paxos_handle, listener;
};

struct SeamCounts {
    std::uint64_t sends = 0;
    std::uint64_t send_bytes = 0;
    std::uint64_t recvs = 0;
    std::uint64_t validates = 0;
    std::uint64_t validates_filtered = 0;
};

struct Tracing {
    SpanRecorder rec;
    SpanIds ids{rec};
    SeamCounts counts;
};

class TracedDatagramChannel final : public DatagramChannel {
public:
    TracedDatagramChannel(DatagramChannel& inner, Tracing& t) : inner_(inner), t_(t) {}

    bool send(ProcessId to, std::span<const std::uint8_t> datagram) override {
        ScopedSpan span(&t_.rec, t_.ids.udp_send);
        ++t_.counts.sends;
        t_.counts.send_bytes += datagram.size();
        return inner_.send(to, datagram);
    }
    void set_receive_handler(RecvFn fn) override {
        inner_.set_receive_handler(
            [this, fn = std::move(fn)](std::span<const std::uint8_t> datagram) {
                ScopedSpan span(&t_.rec, t_.ids.udp_recv);
                ++t_.counts.recvs;
                fn(datagram);
            });
    }
    std::size_t max_datagram_bytes() const override { return inner_.max_datagram_bytes(); }

private:
    DatagramChannel& inner_;
    Tracing& t_;
};

class TracedPeerChannel final : public PeerChannel {
public:
    TracedPeerChannel(PeerChannel& inner, Tracing& t) : inner_(inner), t_(t) {}

    ProcessId self() const override { return inner_.self(); }
    int size() const override { return inner_.size(); }
    void set_body_handler(BodyFn fn) override {
        inner_.set_body_handler(
            [this, fn = std::move(fn)](ProcessId from, std::span<const std::uint8_t> bytes) {
                ScopedSpan span(&t_.rec, t_.ids.transport_rx);
                fn(from, bytes);
            });
    }
    void link(ProcessId peer) override { inner_.link(peer); }
    bool peer_up(ProcessId peer) const override { return inner_.peer_up(peer); }
    bool send_body(ProcessId peer, std::span<const std::uint8_t> bytes,
                   bool reliable) override {
        ScopedSpan span(&t_.rec, t_.ids.link_send);
        return inner_.send_body(peer, bytes, reliable);
    }

private:
    PeerChannel& inner_;
    Tracing& t_;
};

class TracedHooks final : public GossipHooks {
public:
    TracedHooks(GossipHooks& inner, Tracing& t) : inner_(inner), t_(t) {}

    bool validate(const GossipAppMessage& msg, ProcessId peer) override {
        ScopedSpan span(&t_.rec, t_.ids.hooks_validate, instance_of(*msg.payload));
        ++t_.counts.validates;
        const bool keep = inner_.validate(msg, peer);
        if (!keep) ++t_.counts.validates_filtered;
        return keep;
    }
    std::vector<GossipAppMessage> aggregate(std::vector<GossipAppMessage> pending,
                                            ProcessId peer) override {
        ScopedSpan span(&t_.rec, t_.ids.hooks_aggregate);
        return inner_.aggregate(std::move(pending), peer);
    }
    std::vector<GossipAppMessage> disaggregate(const GossipAppMessage& msg) override {
        ScopedSpan span(&t_.rec, t_.ids.hooks_disaggregate, instance_of(*msg.payload));
        return inner_.disaggregate(msg);
    }
    void on_deliver(const GossipAppMessage& msg) override {
        ScopedSpan span(&t_.rec, t_.ids.hooks_deliver, instance_of(*msg.payload));
        inner_.on_deliver(msg);
    }

private:
    GossipHooks& inner_;
    Tracing& t_;
};

class TracedTransport final : public Transport {
public:
    TracedTransport(Transport& inner, Tracing& t) : inner_(inner), t_(t) {
        inner_.set_deliver([this](const PaxosMessagePtr& msg, CpuContext& ctx) {
            ScopedSpan span(&t_.rec, t_.ids.paxos_handle, instance_of(*msg));
            deliver_up(msg, ctx);
        });
    }

    ProcessId self() const override { return inner_.self(); }
    void broadcast(PaxosMessagePtr msg, CpuContext& ctx) override {
        ScopedSpan span(&t_.rec, t_.ids.transport_broadcast, instance_of(*msg));
        inner_.broadcast(std::move(msg), ctx);
        note_origination(inner_.last_origination());
    }
    void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) override {
        ScopedSpan span(&t_.rec, t_.ids.transport_send, instance_of(*msg));
        inner_.send(to, std::move(msg), ctx);
        note_origination(inner_.last_origination());
    }
    void schedule(SimTime delay, std::function<void(CpuContext&)> fn) override {
        inner_.schedule(delay, std::move(fn));
    }
    void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) override {
        inner_.schedule_every(period, std::move(fn));
    }
    void post(std::function<void(CpuContext&)> fn) override { inner_.post(std::move(fn)); }

private:
    Transport& inner_;
    Tracing& t_;
};

// ---- The cluster -----------------------------------------------------------

struct NodeStack {
    // Declaration order is teardown order reversed: the process goes first,
    // the socket last.
    std::unique_ptr<UdpChannel> socket;
    std::unique_ptr<TracedDatagramChannel> traced_socket;
    std::unique_ptr<UdpLink> link;
    std::unique_ptr<TracedPeerChannel> traced_link;
    std::unique_ptr<PaxosSemantics> semantics;
    std::unique_ptr<TracedHooks> traced_hooks;
    std::unique_ptr<RealTransport> transport;
    std::unique_ptr<TracedTransport> traced_transport;
    std::unique_ptr<PaxosProcess> proc;
    std::vector<ValueId> delivered;  ///< in delivery order
};

/// One client's submissions, indexed by sequence number.
struct ClientLog {
    std::vector<SimTime> due;
    std::vector<SimTime> ordered_at;  ///< SimTime::max() until delivered at its node
};

struct Counters {
    std::uint64_t polls = 0;
    std::int64_t cpu_ns = 0;
    std::uint64_t link_datagrams = 0;
    std::uint64_t link_bodies = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t send_errors = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t send_queue_drops = 0;
    std::uint64_t messages_handled = 0;
    std::uint64_t filtered = 0;
    std::uint64_t merged = 0;
    std::uint64_t proposals = 0;
    std::uint64_t proposed_values = 0;
    std::uint64_t paxos_retransmissions = 0;
    SeamCounts seams;
};

class Cluster {
public:
    /// Binds the sockets and builds every node's stack; `tracing` (may be
    /// null) adds the span decorators.
    Cluster(std::uint64_t seed, Tracing* tracing) : tracing_(tracing), clients_(kNodes) {
        // open_udp sets SO_REUSEADDR, under which the kernel may give two
        // port-0 binds the same ephemeral port; a cluster needs five distinct
        // addresses, so a repeated port is held open and another one drawn.
        std::vector<int> fds;
        std::vector<int> repeats;
        std::vector<PeerAddress> addrs;
        const auto close_all = [&] {
            for (const int f : fds) ::close(f);
            for (const int f : repeats) ::close(f);
        };
        while (static_cast<int>(fds.size()) < kNodes) {
            std::string err;
            const int fd = open_udp("127.0.0.1", 0, &err);
            if (fd < 0 || repeats.size() > 64) {
                if (fd >= 0) ::close(fd);
                close_all();
                throw std::runtime_error("open_udp: " + (fd < 0 ? err : "no distinct port"));
            }
            const std::uint16_t port = local_port(fd);
            const bool taken = std::any_of(addrs.begin(), addrs.end(),
                                           [port](const PeerAddress& a) { return a.port == port; });
            (taken ? repeats : fds).push_back(fd);
            if (!taken) addrs.push_back(PeerAddress{"127.0.0.1", port});
        }
        for (const int f : repeats) ::close(f);
        const Graph overlay = make_connected_overlay(kNodes, 42);
        for (int i = 0; i < kNodes; ++i) {
            auto node = std::make_unique<NodeStack>();
            node->socket = std::make_unique<UdpChannel>(reactor_, fds[static_cast<std::size_t>(i)],
                                                        addrs);
            DatagramChannel* dchan = node->socket.get();
            if (tracing_) {
                node->traced_socket = std::make_unique<TracedDatagramChannel>(*dchan, *tracing_);
                dchan = node->traced_socket.get();
            }
            node->link = std::make_unique<UdpLink>(reactor_, i, kNodes, *dchan, UdpLink::Params{});
            PeerChannel* chan = node->link.get();
            if (tracing_) {
                node->traced_link = std::make_unique<TracedPeerChannel>(*chan, *tracing_);
                chan = node->traced_link.get();
            }

            PaxosConfig pc;
            pc.n = kNodes;
            pc.id = i;
            pc.coordinator = 0;
            pc.seed = seed;
            // Semantic filtering drops redundant Phase 2b, so protocol
            // traffic is no evidence of liveness (as in the simulator).
            pc.heartbeat_piggyback = false;
            node->semantics =
                std::make_unique<PaxosSemantics>(i, pc.quorum(), PaxosSemantics::Options{});
            GossipHooks* hooks = node->semantics.get();
            if (tracing_) {
                node->traced_hooks = std::make_unique<TracedHooks>(*hooks, *tracing_);
                hooks = node->traced_hooks.get();
            }
            RealTransport::Params tp;
            tp.mode = RealTransport::Mode::Gossip;
            tp.neighbors = overlay.neighbors(i);
            node->transport =
                std::make_unique<RealTransport>(reactor_, *chan, std::move(tp), *hooks);
            Transport* transport = node->transport.get();
            if (tracing_) {
                node->traced_transport =
                    std::make_unique<TracedTransport>(*transport, *tracing_);
                transport = node->traced_transport.get();
            }
            node->proc = std::make_unique<PaxosProcess>(pc, *transport);
            NodeStack* raw = node.get();
            node->proc->set_delivery_listener(
                [this, raw, i](InstanceId instance, const Value& value, CpuContext&) {
                    ScopedSpan span(tracing_ ? &tracing_->rec : nullptr,
                                    tracing_ ? tracing_->ids.listener : 0, instance);
                    on_delivered(*raw, i, value);
                });
            nodes_.push_back(std::move(node));
        }
    }

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /// Starts the protocol and waits for the coordinator's Phase 1.
    bool start() {
        for (auto& node : nodes_) node->proc->post_start();
        return reactor_.run_until(
            [this] {
                const Coordinator* c = nodes_.front()->proc->coordinator();
                return c != nullptr && c->phase1_complete();
            },
            SimTime::seconds(5));
    }

    Reactor& reactor() { return reactor_; }
    const ClientLog& client(int c) const { return clients_[static_cast<std::size_t>(c)]; }
    const std::vector<std::unique_ptr<NodeStack>>& nodes() const { return nodes_; }
    double lateness_ms_sum() const { return lateness_ms_sum_; }
    /// Values delivered at their own client's node so far.
    std::uint64_t ordered() const { return ordered_; }

    /// Arms open-loop clients submitting `rate` values/s in total, split
    /// evenly over the nodes. Each client's due times are independent
    /// seed-derived uniform draws over [start, start + duration): Poisson
    /// arrivals conditioned on the count, so every seed offers the same load
    /// without phase-locking the clients to the reactor's millisecond poll
    /// timeout. Values still unordered `deadline` after the phase's end are
    /// abandoned (finish_phase). Returns the first sequence number of the
    /// phase per client.
    std::vector<std::size_t> begin_phase(double rate, SimTime start, SimTime duration,
                                         SimTime deadline, std::uint64_t seed) {
        phase_end_ = start + duration;
        hard_stop_ = phase_end_ + deadline;
        const auto per_client =
            static_cast<std::size_t>(std::llround(rate * duration.as_seconds() / kNodes));
        std::vector<std::size_t> first(kNodes);
        schedule_.assign(kNodes, {});
        next_due_.assign(kNodes, 0);
        generating_ = kNodes;
        for (int c = 0; c < kNodes; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            first[ci] = clients_[ci].due.size();
            Rng rng = Rng::derive(seed, hash_combine(static_cast<std::uint64_t>(rate),
                                                     static_cast<std::uint64_t>(c)));
            std::vector<SimTime>& due = schedule_[ci];
            due.resize(per_client);
            for (SimTime& t : due) {
                t = start + SimTime::nanos(static_cast<std::int64_t>(
                                rng.uniform01() * static_cast<double>(duration.as_nanos())));
            }
            std::sort(due.begin(), due.end());
            arm_client(c);
        }
        return first;
    }

    /// Runs the loop until `t` (or the phase's hard stop).
    void run_to(SimTime t) {
        reactor_.run_until([this, t] { return reactor_.now() >= t; },
                           std::min(t, hard_stop_) - reactor_.now());
    }

    /// Runs until the phase's clients are done and every value is ordered at
    /// all nodes, or until the hard stop.
    void finish_phase() {
        run_to(phase_end_);
        reactor_.run_until([this] { return generating_ == 0 && all_ordered_everywhere(); },
                           hard_stop_ - reactor_.now());
        ++phase_;  // generator timers still pending past the deadline go idle
    }

    std::uint64_t submitted() const {
        std::uint64_t n = 0;
        for (const ClientLog& c : clients_) n += c.due.size();
        return n;
    }

    Counters counters() const {
        Counters k;
        k.polls = reactor_.stats().polls;
        k.cpu_ns = thread_cpu_ns();
        for (const auto& node : nodes_) {
            const auto& lc = node->link->counters();
            k.link_datagrams += lc.datagrams_sent;
            k.link_bodies += lc.bodies_sent;
            k.retransmits += lc.retransmits + lc.fast_retransmits;
            k.send_errors += lc.send_failures + node->socket->counters().send_errors;
            const auto& tc = node->transport->counters();
            k.decode_errors += lc.decode_errors + tc.decode_errors;
            k.duplicates += tc.duplicates;
            k.messages_received += tc.messages_received;
            k.send_queue_drops += tc.send_queue_drops;
            k.messages_handled += node->proc->counters().messages_handled;
            k.filtered += node->semantics->stats().filtered_phase2b;
            k.merged += node->semantics->stats().messages_merged;
            k.paxos_retransmissions += node->proc->counters().value_retransmissions;
            if (const Coordinator* c = node->proc->coordinator()) {
                const auto& cc = c->counters();
                k.proposals += cc.proposals;
                k.proposed_values += cc.proposals - cc.batches_proposed + cc.batched_values;
                k.paxos_retransmissions += cc.retransmissions;
            }
        }
        if (tracing_) k.seams = tracing_->counts;
        return k;
    }

private:
    void arm_client(int c) {
        const auto ci = static_cast<std::size_t>(c);
        if (next_due_[ci] >= schedule_[ci].size()) {
            --generating_;
            return;
        }
        const SimTime delay =
            std::max(schedule_[ci][next_due_[ci]] - reactor_.now(), SimTime::zero());
        reactor_.schedule_after(delay, [this, c, ci, phase = phase_] {
            if (phase != phase_) return;
            // Open loop: a late wake-up submits everything that fell due,
            // each value stamped with its own due time.
            const SimTime now = reactor_.now();
            const std::vector<SimTime>& due = schedule_[ci];
            while (next_due_[ci] < due.size() && due[next_due_[ci]] <= now) {
                submit(c, due[next_due_[ci]++], now);
            }
            arm_client(c);
        });
    }

    void submit(int c, SimTime due, SimTime now) {
        ClientLog& log = clients_[static_cast<std::size_t>(c)];
        Value value;
        value.id = ValueId{c, static_cast<std::int64_t>(log.due.size())};
        log.due.push_back(due);
        log.ordered_at.push_back(SimTime::max());
        lateness_ms_sum_ += (now - due).as_millis();
        nodes_[static_cast<std::size_t>(c)]->proc->post_submit(value);
    }

    void on_delivered(NodeStack& node, int i, const Value& value) {
        node.delivered.push_back(value.id);
        ++delivered_total_;
        if (value.id.client == i) {
            ClientLog& log = clients_[static_cast<std::size_t>(i)];
            const auto seq = static_cast<std::size_t>(value.id.seq);
            if (seq < log.ordered_at.size() && log.ordered_at[seq] == SimTime::max()) {
                log.ordered_at[seq] = reactor_.now();
                ++ordered_;
            }
        }
        // Overload guard: a backlogged loop can spend a long time inside one
        // iteration, so the phase deadline is also enforced from here.
        if (reactor_.now() > hard_stop_) reactor_.stop();
    }

    bool all_ordered_everywhere() const {
        return delivered_total_ == submitted() * static_cast<std::uint64_t>(kNodes);
    }

    Reactor reactor_;
    Tracing* tracing_;
    std::vector<std::unique_ptr<NodeStack>> nodes_;
    std::vector<ClientLog> clients_;
    std::uint64_t delivered_total_ = 0;
    std::uint64_t ordered_ = 0;
    double lateness_ms_sum_ = 0.0;
    SimTime phase_end_ = SimTime::zero();
    SimTime hard_stop_ = SimTime::max();
    std::vector<std::vector<SimTime>> schedule_;  ///< current phase's due times per client
    std::vector<std::size_t> next_due_;           ///< next unsubmitted index per client
    int generating_ = 0;         ///< clients of the current phase still submitting
    std::uint64_t phase_ = 0;    ///< bumps when a phase ends
};

/// Latency and failure accounting for the values of one phase whose due
/// time lies in [from, to).
struct PhaseStats {
    Histogram latency_ms;
    double p99_sec_median_ms = 0.0;  ///< sec_median_p99 of the same latencies
    std::uint64_t attempted = 0;
    std::uint64_t unordered = 0;
    std::uint64_t ordered_in_window = 0;  ///< delivered at its client within [from, to)
};

PhaseStats phase_stats(const Cluster& cl, const std::vector<std::size_t>& first, SimTime from,
                       SimTime to) {
    PhaseStats s;
    std::vector<TimedLatency> timed;
    for (int c = 0; c < kNodes; ++c) {
        const ClientLog& log = cl.client(c);
        for (std::size_t q = first[static_cast<std::size_t>(c)]; q < log.due.size(); ++q) {
            const SimTime at = log.ordered_at[q];
            if (at != SimTime::max() && at >= from && at < to) ++s.ordered_in_window;
            if (log.due[q] < from || log.due[q] >= to) continue;
            ++s.attempted;
            if (at == SimTime::max()) {
                ++s.unordered;
            } else {
                const double ms = (at - log.due[q]).as_millis();
                s.latency_ms.add(ms);
                timed.push_back({at.as_seconds(), ms});
            }
        }
    }
    s.p99_sec_median_ms = sec_median_p99(timed, from.as_seconds());
    return s;
}

/// All nodes must deliver one sequence: each node's log is a prefix of the
/// longest, and when nothing failed they are identical.
void check_sequences(const Cluster& cl, bool expect_complete, RunResult& out) {
    const NodeStack* longest = nullptr;
    for (const auto& n : cl.nodes()) {
        if (longest == nullptr || n->delivered.size() > longest->delivered.size()) {
            longest = n.get();
        }
    }
    for (std::size_t i = 0; i < cl.nodes().size(); ++i) {
        const auto& d = cl.nodes()[i]->delivered;
        if (!std::equal(d.begin(), d.end(), longest->delivered.begin())) {
            out.fail_check("node " + std::to_string(i) + " delivered a different sequence");
        } else if (expect_complete && d.size() != longest->delivered.size()) {
            out.fail_check("node " + std::to_string(i) + " delivered " +
                           std::to_string(d.size()) + " values, another node " +
                           std::to_string(longest->delivered.size()));
        }
    }
}

/// CPU cost is taken per slice of the window and reported as the median
/// slice, so a burst of load from outside the process moves it less.
constexpr SimTime kCpuSlice = SimTime::millis(500);

struct FixedPoint {
    PhaseStats stats;
    double window_s = 0.0;
    Counters before;  ///< at the window's start
    Counters after;   ///< at the window's end
    std::vector<double> slice_cpu_us_per_op;
};

/// Runs the fixed-rate point on a started cluster. With tracing, spans are
/// recorded during the measured window only.
FixedPoint run_fixed_point(Cluster& cl, double window_s, std::uint64_t seed,
                           Tracing* tracing) {
    FixedPoint fp;
    Reactor& r = cl.reactor();
    const SimTime start = r.now() + SimTime::millis(5);
    const SimTime w0 = start + kWarmup;
    const SimTime w1 = w0 + SimTime::seconds(window_s);
    const std::vector<std::size_t> first =
        cl.begin_phase(kFixedRate, start, w1 - start, kDrainDeadline, seed);
    cl.run_to(w0);
    const SimTime t0 = r.now();
    fp.before = cl.counters();
    if (tracing) tracing->rec.set_enabled(true);
    std::int64_t cpu = fp.before.cpu_ns;
    std::uint64_t ordered = cl.ordered();
    for (SimTime t = w0 + kCpuSlice; t <= w1; t = t + kCpuSlice) {
        cl.run_to(t);
        const std::int64_t cpu_now = thread_cpu_ns();
        const std::uint64_t ordered_now = cl.ordered();
        if (ordered_now > ordered) {
            fp.slice_cpu_us_per_op.push_back(static_cast<double>(cpu_now - cpu) / 1e3 /
                                             static_cast<double>(ordered_now - ordered));
        }
        cpu = cpu_now;
        ordered = ordered_now;
    }
    cl.run_to(w1);
    fp.after = cl.counters();
    if (tracing) tracing->rec.set_enabled(false);
    fp.window_s = (r.now() - t0).as_seconds();
    cl.finish_phase();
    fp.stats = phase_stats(cl, first, w0, w1);
    return fp;
}

std::unique_ptr<Cluster> started_cluster(std::uint64_t seed, Tracing* tracing) {
    auto cl = std::make_unique<Cluster>(seed, tracing);
    if (!cl->start()) throw std::runtime_error("coordinator Phase 1 did not complete");
    return cl;
}

}  // namespace

RunResult run_runtime_udp_n5(const Options& opt) {
    RunResult out;
    // The cluster runs on this thread; its CPU is kept from going idle, and
    // CPU cost is this thread's CPU time (the spinner's is not counted).
    const IdleSpinner keep_cpu_awake;
    out.notes.push_back(keep_cpu_awake.active()
                            ? "idle spinner on cpu " + std::to_string(keep_cpu_awake.cpu())
                            : std::string("idle spinner unavailable"));

    std::vector<double> setup;
    std::unique_ptr<Cluster> cl;
    const std::int64_t setup_start = wall_ns();
    for (int k = 0; more_setups(k, setup_start); ++k) {
        cl.reset();
        const std::int64_t t0 = wall_ns();
        cl = started_cluster(opt.seed, nullptr);
        setup.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    }

    // A traced run measures two fixed points (untraced, then traced) and the
    // ladder, so each fixed point gets half the window.
    const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const FixedPoint fp = run_fixed_point(*cl, window_s, opt.seed, nullptr);
    const PhaseStats& s = fp.stats;
    out.attempted = s.attempted;
    out.failed = s.unordered;
    if (fp.slice_cpu_us_per_op.empty()) throw std::runtime_error("no value ordered");
    const double cpu_us_per_op = median(fp.slice_cpu_us_per_op);
    const Counters& a = fp.after;
    char note[320];
    std::snprintf(note, sizeof note,
                  "fixed point %.0f ops/s: window_samples=%zu p99_ms=%.3f attempted=%llu "
                  "unordered=%llu send_queue_drops=%llu decode_errors=%llu send_errors=%llu",
                  kFixedRate, s.latency_ms.count(), s.latency_ms.percentile(99),
                  static_cast<unsigned long long>(s.attempted),
                  static_cast<unsigned long long>(s.unordered),
                  static_cast<unsigned long long>(a.send_queue_drops),
                  static_cast<unsigned long long>(a.decode_errors),
                  static_cast<unsigned long long>(a.send_errors));
    out.notes.push_back(note);
    if (s.latency_ms.empty()) {
        out.fail_check("no value ordered at the fixed point");
        return out;
    }

    if (!opt.trace) {
        check_sequences(*cl, s.unordered == 0, out);
        out.metrics = {
            {"commit_p50_ms", s.latency_ms.percentile(50)},
            {"commit_p99_sec_median_ms", s.p99_sec_median_ms},
            {"goodput_ops", static_cast<double>(s.ordered_in_window) / window_s},
            {"cpu_us_per_op", cpu_us_per_op},
            {"setup_s", median(setup)},
            {"peak_rss_mb", peak_rss_mb()},
        };
        return out;
    }

    MetricValues m;
    m["commit_p99_ms"] = s.latency_ms.percentile(99);
    m["unordered_frac"] = per(static_cast<double>(s.unordered), static_cast<double>(s.attempted));
    m["workload.gen_late_ms"] =
        per(cl->lateness_ms_sum(), static_cast<double>(cl->submitted()));

    // Rate ladder on the same cluster. Each step has its own deadline; the
    // first step that misses the p99 limit or leaves a value unordered ends
    // the ladder.
    double max_rate = 0.0;
    std::uint64_t unordered_at_stop = 0;
    for (const double rate : kLadderRates) {
        Reactor& r = cl->reactor();
        const SimTime start = r.now() + SimTime::millis(5);
        const std::vector<std::size_t> first =
            cl->begin_phase(rate, start, kLadderStep, kLadderDeadline, opt.seed);
        cl->finish_phase();
        const PhaseStats step = phase_stats(*cl, first, start, start + kLadderStep);
        const bool pass = step.unordered == 0 && !step.latency_ms.empty() &&
                          step.latency_ms.percentile(99) <= kP99LimitMs;
        char line[160];
        std::snprintf(line, sizeof line, "ladder %.0f ops/s: p99=%.3f ms unordered=%llu %s",
                      rate, step.latency_ms.empty() ? 0.0 : step.latency_ms.percentile(99),
                      static_cast<unsigned long long>(step.unordered), pass ? "pass" : "stop");
        out.notes.push_back(line);
        if (!pass) {
            unordered_at_stop = step.unordered;
            break;
        }
        max_rate = rate;
        if (r.stopped()) break;
    }
    check_sequences(*cl, false, out);
    cl.reset();
    m["max_rate_ops"] = max_rate;
    m["ladder.unordered_at_stop"] = static_cast<double>(unordered_at_stop);

    // The traced fixed point, on a fresh cluster with every seam decorated.
    Tracing tracing;
    std::unique_ptr<Cluster> tcl = started_cluster(opt.seed, &tracing);
    const FixedPoint tfp = run_fixed_point(*tcl, window_s, opt.seed, &tracing);
    check_sequences(*tcl, tfp.stats.unordered == 0, out);
    const Counters& b = tfp.before;
    const Counters& e = tfp.after;
    const double ops = static_cast<double>(tfp.stats.ordered_in_window);
    const auto d = [](auto after, auto before) {
        return static_cast<double>(after) - static_cast<double>(before);
    };
    const auto self_per_op = [&](const char* name) {
        return per(static_cast<double>(tracing.rec.totals(name).self_ns), ops);
    };
    m["udp.sends_per_op"] = per(d(e.seams.sends, b.seams.sends), ops);
    m["udp.recvs_per_op"] = per(d(e.seams.recvs, b.seams.recvs), ops);
    m["udp.bodies_per_datagram"] =
        per(d(e.link_bodies, b.link_bodies), d(e.link_datagrams, b.link_datagrams));
    m["udp.bytes_per_op"] = per(d(e.seams.send_bytes, b.seams.send_bytes), ops);
    m["udp.send_ns"] = self_per_op("udp.send");
    m["udp.link_rx_self_ns"] = self_per_op("udp.recv");
    m["udp.retransmits_per_op"] = per(d(e.retransmits, b.retransmits), ops);
    m["udp.send_errors"] = d(e.send_errors, b.send_errors);
    m["transport.rx_self_ns"] = self_per_op("transport.rx");
    m["transport.dup_frac"] =
        per(d(e.duplicates, b.duplicates), d(e.messages_received, b.messages_received));
    m["transport.send_queue_drops"] = d(e.send_queue_drops, b.send_queue_drops);
    m["transport.decode_errors"] = d(e.decode_errors, b.decode_errors);
    m["semantic.hook_ns"] =
        self_per_op("hooks.validate") + self_per_op("hooks.aggregate") +
        self_per_op("hooks.disaggregate") + self_per_op("hooks.on_deliver");
    m["semantic.filter_ratio"] = per(d(e.seams.validates_filtered, b.seams.validates_filtered),
                                     d(e.seams.validates, b.seams.validates));
    m["semantic.filtered_per_op"] = per(d(e.filtered, b.filtered), ops);
    m["semantic.merged_per_op"] = per(d(e.merged, b.merged), ops);
    m["paxos.msgs_per_op"] = per(d(e.messages_handled, b.messages_handled), ops);
    m["paxos.handle_ns"] = self_per_op("paxos.handle");
    m["paxos.values_per_batch"] =
        per(d(e.proposed_values, b.proposed_values), d(e.proposals, b.proposals));
    m["paxos.retransmissions"] = d(e.paxos_retransmissions, b.paxos_retransmissions);
    m["reactor.polls_per_op"] = per(d(e.polls, b.polls), ops);
    m["reactor.busy_frac"] = d(e.cpu_ns, b.cpu_ns) / (tfp.window_s * 1e9);
    if (tfp.slice_cpu_us_per_op.empty()) throw std::runtime_error("no value ordered");
    const double traced_cpu_us_per_op = median(tfp.slice_cpu_us_per_op);
    m["trace.overhead_cpu_us_per_op"] = traced_cpu_us_per_op - cpu_us_per_op;

    std::error_code ec;
    std::filesystem::create_directories(std::string(kSpanDir), ec);
    const std::string path =
        std::string(kSpanDir) + "/runtime_udp_n5-seed" + std::to_string(opt.seed) + ".tsv";
    if (!ec && tracing.rec.write_tsv(path)) {
        out.notes.push_back("spans: " + path + " (" +
                            std::to_string(tracing.rec.dropped()) + " beyond the kept cap)");
    } else {
        out.notes.push_back("spans: could not write " + path);
    }
    out.metrics = std::move(m);
    return out;
}

}  // namespace perfbench
