// Non-blocking TCP connection manager (DESIGN.md §10): maintains one
// framed, bidirectional connection per linked peer of a node.
//
// Dial policy: for a linked pair the lower process id dials and the higher
// id accepts, so exactly one connection exists per overlay edge. Both ends
// send a Hello frame identifying themselves; a link counts as up once the
// remote Hello arrives. Dialed connections that fail or drop are re-dialed
// with exponential backoff (reset on a successful Hello); accepted
// connections are simply awaited again. When a peer restarts and dials
// anew while a stale connection lingers, the newest connection wins.
//
// Writes go through a per-connection queue capped in bytes: a frame that
// would push the queue past the cap is dropped and counted, mirroring the
// gossip layer's bounded per-peer send queues — backpressure shows up as
// message loss (which the protocol already tolerates), not as unbounded
// memory.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/peer_channel.hpp"
#include "runtime/reactor.hpp"
#include "wire/frame.hpp"

namespace gossipc::runtime {

struct PeerAddress {
    std::string host;
    std::uint16_t port = 0;
};

class ConnectionManager final : public PeerChannel {
public:
    struct Params {
        /// Per-connection write-queue cap (bytes); frames beyond it drop.
        std::size_t write_queue_cap_bytes = 4u << 20;
        SimTime reconnect_backoff_initial = SimTime::millis(50);
        SimTime reconnect_backoff_max = SimTime::seconds(2);
    };

    struct Counters {
        std::uint64_t dials = 0;             ///< outbound connection attempts
        std::uint64_t accepts = 0;           ///< inbound connections accepted
        std::uint64_t links_up = 0;          ///< Hello handshakes completed
        std::uint64_t disconnects = 0;       ///< connections dropped (any cause)
        std::uint64_t frames_sent = 0;
        std::uint64_t frames_received = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t bytes_received = 0;
        std::uint64_t send_drops_down = 0;   ///< sends while the link was down
        std::uint64_t send_drops_backpressure = 0;  ///< write-queue cap hit
        std::uint64_t protocol_errors = 0;   ///< corrupt stream / bad Hello
    };

    /// `listen_fd` must already be bound + listening + non-blocking
    /// (runtime::listen_tcp); the manager owns it from here on.
    ConnectionManager(Reactor& reactor, ProcessId self,
                      std::vector<PeerAddress> cluster, int listen_fd, Params params);
    ~ConnectionManager() override;

    ConnectionManager(const ConnectionManager&) = delete;
    ConnectionManager& operator=(const ConnectionManager&) = delete;

    /// Declares `peer` a linked neighbor: dials it (if this side dials) and
    /// keeps re-dialing on failure until the manager is destroyed.
    void link(ProcessId peer) override;

    /// Queues one frame to `to`. False (and a counter bump) when the link is
    /// down or the write queue is over its cap — the frame is dropped.
    bool send_frame(ProcessId to, wire::FrameType type,
                    std::span<const std::uint8_t> payload);

    // PeerChannel body-level interface. The reliable flag is advisory here:
    // an up TCP link retransmits everything, a down one drops everything.
    void set_body_handler(BodyFn fn) override { body_fn_ = std::move(fn); }
    bool send_body(ProcessId peer, std::span<const std::uint8_t> bytes,
                   bool reliable) override {
        (void)reliable;
        return send_frame(peer, wire::FrameType::Body, bytes);
    }

    bool peer_up(ProcessId peer) const override;
    ProcessId self() const override { return self_; }
    int size() const override { return static_cast<int>(cluster_.size()); }
    const Counters& counters() const { return counters_; }

private:
    struct Conn {
        int fd = -1;
        ProcessId peer = -1;        ///< -1 until the remote Hello (accepted conns)
        bool dialed = false;        ///< we initiated this connection
        bool connecting = false;    ///< non-blocking connect still in progress
        bool hello_received = false;
        wire::FrameParser parser;
        std::deque<std::vector<std::uint8_t>> outq;
        std::size_t out_bytes = 0;      ///< queued bytes across outq
        std::size_t front_offset = 0;   ///< bytes of outq.front() already sent
    };

    bool dials(ProcessId peer) const { return self_ < peer; }
    void start_dial(ProcessId peer);
    void schedule_redial(ProcessId peer);
    void on_listener_ready();
    void on_conn_event(int fd, bool readable, bool writable, bool error);
    void handle_readable(Conn& conn);
    void handle_writable(Conn& conn);
    void handle_hello(Conn& conn, std::span<const std::uint8_t> payload);
    void adopt(Conn& conn, ProcessId peer);
    /// Closes and forgets the connection; schedules a redial when this side
    /// dials the peer. Invalidates the Conn reference.
    void drop_conn(int fd);
    void enqueue(Conn& conn, std::vector<std::uint8_t> frame);

    Reactor& reactor_;
    ProcessId self_;
    std::vector<PeerAddress> cluster_;
    int listen_fd_;
    Params params_;
    BodyFn body_fn_;

    std::unordered_map<int, Conn> conns_;        ///< by fd
    std::vector<int> peer_fd_;                   ///< current conn fd per peer (-1 none)
    std::vector<bool> linked_;                   ///< peers this node keeps connected
    std::vector<SimTime> backoff_;               ///< next redial delay per peer
    std::vector<bool> redial_pending_;           ///< a redial timer is armed
    /// Guards the redial timers, which cannot be cancelled individually and
    /// may fire after the manager is destroyed (chaos crash teardown).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    Counters counters_;
};

}  // namespace gossipc::runtime
