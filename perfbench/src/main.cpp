// perfbench — runs one benchmark workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: sim_semantic_n53, sim_sharded_failover, runtime_udp_n5 (see
// perfbench/README.md). Stdout ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where metrics maps each measured metric's name to its value: with --trace 0
// the end-to-end set, with --trace 1 the per-layer metrics that apply to the
// workload (run.py adds units and the rest). A failed output check prints
// correct=false with no metrics and exits 1.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "probe.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const char* why) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv0, why, argv0);
    std::exit(2);
}

std::string json_number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(argv[0], ("missing value for " + flag).c_str());
        const char* val = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
            if (end == val || *end != '\0') usage(argv[0], "bad --seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
                usage(argv[0], "bad --seconds");
            }
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
                usage(argv[0], "--trace takes 0 or 1");
            }
            opt.trace = val[0] == '1';
        } else {
            usage(argv[0], ("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed) usage(argv[0], "--workload and --seed are required");

    // Numbers from different builds are not comparable (the invariant probe
    // alone is a large share of simulator time), so every run says which
    // build produced it.
    std::printf(
        "env: build_type=%s cxx_flags=\"%s\" GC_INVARIANTS=%s compiler=\"%s\" nproc=%u "
        "network=\"loopback, no real link\"\n",
        PB_BUILD_TYPE, PB_CXX_FLAGS, GC_ENABLE_INVARIANTS ? "ON" : "OFF", PB_COMPILER,
        std::thread::hardware_concurrency());
    std::fflush(stdout);

    perfbench::RunResult result;
    try {
        if (opt.workload == "sim_semantic_n53") {
            result = perfbench::run_sim_semantic_n53(opt);
        } else if (opt.workload == "sim_sharded_failover") {
            result = perfbench::run_sim_sharded_failover(opt);
        } else if (opt.workload == "runtime_udp_n5") {
            result = perfbench::run_runtime_udp_n5(opt);
        } else {
            usage(argv[0], ("unknown workload " + opt.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    if (result.correct) {
        bool first = true;
        for (const auto& [name, value] : result.metrics) {
            if (!first) json += ", ";
            first = false;
            json += "\"" + name + "\": " + json_number(value);
        }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return result.correct ? 0 : 1;
}
