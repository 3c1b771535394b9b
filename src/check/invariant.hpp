// Runtime invariant layer (correctness tooling).
//
// GC_INVARIANT(cond, fmt, ...) states a protocol or data-structure invariant
// at the point where it must hold. In debug and sanitizer builds a violated
// invariant prints the condition, location, and a printf-formatted context
// message to stderr and aborts — wrong protocol states die loudly at the
// first observable violation instead of surfacing as wrong benchmark numbers.
// In release builds (GC_ENABLE_INVARIANTS=0, set by the build system) the
// macro compiles out entirely: the condition and the format arguments are
// type-checked but never evaluated.
//
// The build system defines GC_ENABLE_INVARIANTS on every target (see the
// GC_INVARIANTS CMake option); the NDEBUG fallback below only covers
// non-CMake consumers of the headers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#ifndef GC_ENABLE_INVARIANTS
#ifdef NDEBUG
#define GC_ENABLE_INVARIANTS 0
#else
#define GC_ENABLE_INVARIANTS 1
#endif
#endif

namespace gossipc::check {

/// Prints the failed condition and formatted diagnostics, then aborts.
[[noreturn]] void invariant_failed(const char* condition, const char* file, int line,
                                   const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

namespace detail {
/// Swallows the macro arguments in disabled builds so that variables used
/// only in invariant messages do not become "unused" warnings. Sits behind
/// `if (false)`, so nothing is ever evaluated at runtime.
template <typename... Args>
inline void sink(Args&&... /*args*/) {}
}  // namespace detail

/// Observer running registered whole-system checks at points chosen by the
/// host: the simulator invokes it through an event-count probe, the
/// experiment driver after a run. Each check is a closure over the
/// components it inspects and fails via GC_INVARIANT. Only checks that are
/// O(processes) per run belong here (coordinator succession); per-instance
/// state is checked at its transitions instead (paxos_invariants.hpp).
class InvariantChecker {
public:
    using CheckFn = std::function<void()>;

    void add_check(std::string name, CheckFn fn) {
        checks_.push_back(Named{std::move(name), std::move(fn)});
    }

    /// Runs every registered check once.
    void run_all() {
        for (const Named& c : checks_) c.fn();
        ++runs_;
    }

    std::size_t check_count() const { return checks_.size(); }
    std::uint64_t runs() const { return runs_; }

private:
    struct Named {
        std::string name;
        CheckFn fn;
    };
    std::vector<Named> checks_;
    std::uint64_t runs_ = 0;
};

}  // namespace gossipc::check

#if GC_ENABLE_INVARIANTS
#define GC_INVARIANT(cond, ...)                                                       \
    do {                                                                              \
        if (!(cond)) [[unlikely]] {                                                   \
            ::gossipc::check::invariant_failed(#cond, __FILE__, __LINE__,             \
                                               __VA_ARGS__);                          \
        }                                                                             \
    } while (0)
#else
#define GC_INVARIANT(cond, ...)                                                       \
    do {                                                                              \
        if (false) {                                                                  \
            ::gossipc::check::detail::sink(!(cond), __VA_ARGS__);                     \
        }                                                                             \
    } while (0)
#endif
