// Observability: run a small loop under the cycle-accurate pipeline with a
// tracer attached, publish the run into a MetricRegistry, and emit both
// trace formats.
//
//   $ ./examples/observability            # prints counters + trace snippet
//   $ ./examples/observability trace.json # also writes a Chrome trace; open
//                                         # it in Perfetto / chrome://tracing
#include <cstdio>
#include <fstream>
#include <sstream>

#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "mem/memory.hpp"
#include "sim/pipeline.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

int main(int argc, char** argv) {
    using namespace asbr;

    // A branchy loop: count the even elements of an array.
    const Program program = assemble(R"(
        .data
values: .word 3, 1, 4, 1, 5, 9, 2, 6
        .text
main:   la   s0, values
        li   s1, 8          # element count
        li   s2, 0          # even count
loop:   lw   t0, 0(s0)
        addiu s0, s0, 4
        andi t0, t0, 1
        bnez t0, odd
        addiu s2, s2, 1
odd:    addiu s1, s1, -1
        bnez s1, loop
        move a0, s2
        li   v0, 3          # print integer syscall
        sys
        li   a0, 0
        li   v0, 1          # exit syscall
        sys
    )");

    Memory memory;
    memory.loadProgram(program);

    // Attach a tracer.  A null `config.tracer` means "tracing off".
    Tracer tracer;
    PipelineConfig config;
    config.tracer = &tracer;

    auto predictor = makeBimodal2048();
    PipelineSim sim(program, memory, *predictor, config);
    const PipelineResult result = sim.run();
    std::printf("output \"%s\" in %llu cycles\n", result.output.c_str(),
                static_cast<unsigned long long>(result.stats.cycles));

    // Publish the run into a registry and walk the counters by name.
    MetricRegistry registry;
    result.stats.publish(registry);
    predictor->publishMetrics(registry);
    std::printf("\ncounters:\n");
    for (const auto& [name, counter] : registry.counters())
        std::printf("  %-34s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(counter.value()));

    // The same events serialize as JSONL (grep/jq-friendly) ...
    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    std::printf("\nfirst trace events (%zu total):\n",
                tracer.events().size());
    std::istringstream lines(jsonl.str());
    std::string line;
    for (int i = 0; i < 5 && std::getline(lines, line); ++i)
        std::printf("  %s\n", line.c_str());

    // ... or as a Chrome trace_event document for Perfetto.
    if (argc > 1) {
        std::ofstream out(argv[1]);
        tracer.writeChrome(out);
        std::printf("\nwrote Chrome trace to %s\n", argv[1]);
    }
    return 0;
}
