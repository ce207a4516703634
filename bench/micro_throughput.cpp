// Micro-benchmarks (google-benchmark) for the simulation infrastructure
// itself: simulator cycle throughput, predictor lookup/update cost, ASBR
// fold cost, assembler and compiler speed.  These are engineering numbers
// for users of the library, not paper results.
#include <benchmark/benchmark.h>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/perceptron.hpp"
#include "bp/tage.hpp"
#include "cc/compile.hpp"
#include "driver/artifacts.hpp"
#include "driver/engine.hpp"
#include "sim/fast_forward_log.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "util/rng.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace asbr;

const Program& adpcmProgram() {
    static const Program program = buildBench(BenchId::kAdpcmEncode);
    return program;
}

const std::vector<std::int16_t>& pcmInput() {
    static const std::vector<std::int16_t> pcm = generateSpeech(4000, 5);
    return pcm;
}

void BM_FunctionalSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        FunctionalSim sim(p, mem);
        instructions += sim.run().instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

void BM_PipelineSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        auto bp = makeBimodal2048();
        PipelineSim sim(p, mem, *bp);
        cycles += sim.run().stats.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSim)->Unit(benchmark::kMillisecond);

void BM_PipelineSimWithAsbr(benchmark::State& state) {
    const Program& p = adpcmProgram();
    const auto pcs = allConditionalBranches(p);
    std::vector<std::uint32_t> selected(
        pcs.begin(), pcs.begin() + std::min<std::size_t>(pcs.size(), 16));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        auto bp = makeBimodal(512, 512);
        AsbrUnit unit;
        unit.loadBank(0, extractBranchInfos(p, selected));
        PipelineSim sim(p, mem, *bp, PipelineConfig{}, &unit);
        cycles += sim.run().stats.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSimWithAsbr)->Unit(benchmark::kMillisecond);

void BM_SampledSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t instructions = 0;
    const auto freshMemory = [&p] {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        return mem;
    };
    for (auto _ : state) {
        // Default window geometry (2k warmup / 10k measure / 100k skip),
        // one-shot: the log walk is timed with the run.  instr/s here is the
        // headline sim-speed number docs/simulation.md quotes, measured on
        // the same input as BM_PipelineSim above.
        Memory walk = freshMemory();
        const FastForwardLog log = FastForwardLog::record(
            p, walk, SamplingConfig{}, PipelineConfig{}.maxCycles);
        Memory mem = freshMemory();
        auto bp = makeBimodal2048();
        instructions += runSampled(p, mem, *bp, log).totalInstructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSim)->Unit(benchmark::kMillisecond);

void BM_SampledSimWithAsbr(benchmark::State& state) {
    // One sampled ASBR cell as a sweep runs it: ADPCM encode of the same
    // input size under the driver's --asbr selection (the paper's policy),
    // default geometry.  The log is recorded once outside the timed loop,
    // as a sweep shares it across its cells, and only runSampled is timed.
    driver::SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.samples = pcmInput().size();
    job.asbr = true;
    driver::SimEngine engine;
    const auto workload = engine.workloadFor(job);
    const auto selection = engine.selectionFor(job);
    const driver::Prepared& prepared = workload->prepared();
    const auto log = workload->fastForwardLog(SamplingConfig{});
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Memory mem = driver::makeMemory(prepared);
        auto bp = makeBimodal2048();
        const auto unit = selection->makeUnit(false);
        state.ResumeTiming();
        const SampledResult result =
            runSampled(prepared.program, mem, *bp, *log, {}, unit.get());
        benchmark::DoNotOptimize(result.totalInstructions);
        instructions += result.totalInstructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSimWithAsbr)->Unit(benchmark::kMillisecond);

template <typename MakePredictor>
void predictorLoop(benchmark::State& state, MakePredictor make) {
    auto predictor = make();
    Xorshift64 rng(7);
    std::vector<std::uint32_t> pcs;
    std::vector<bool> outcomes;
    for (int i = 0; i < 4096; ++i) {
        pcs.push_back(0x1000 + static_cast<std::uint32_t>(rng.below(256)) * 4);
        outcomes.push_back(rng.chance(0.7));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint32_t pc = pcs[i & 4095];
        benchmark::DoNotOptimize(predictor->predict(pc));
        predictor->update(pc, outcomes[i & 4095], pc + 64);
        ++i;
    }
}

void BM_BimodalPredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeBimodal2048(); });
}
BENCHMARK(BM_BimodalPredict);

void BM_GSharePredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeGshare2048(); });
}
BENCHMARK(BM_GSharePredict);

void BM_TagePredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeTage(); });
}
BENCHMARK(BM_TagePredict);

void BM_PerceptronPredict(benchmark::State& state) {
    predictorLoop(state, [] { return makePerceptron(); });
}
BENCHMARK(BM_PerceptronPredict);

void BM_BitLookup(benchmark::State& state) {
    const Program& p = adpcmProgram();
    const auto pcs = allConditionalBranches(p);
    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(
                         p, std::span(pcs).subspan(
                                0, std::min<std::size_t>(pcs.size(), 16))));
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint32_t pc = pcs[i % pcs.size()];
        benchmark::DoNotOptimize(unit.bit().lookup(pc));
        ++i;
    }
}
BENCHMARK(BM_BitLookup);

void BM_Assemble(benchmark::State& state) {
    std::string src = "main:\n";
    for (int i = 0; i < 500; ++i)
        src += "  addiu t0, t0, 1\n  bnez t0, main\n";
    src += "  li v0, 1\n  li a0, 0\n  sys\n";
    for (auto _ : state) benchmark::DoNotOptimize(assemble(src));
    state.SetItemsProcessed(state.iterations() * 1003);
}
BENCHMARK(BM_Assemble)->Unit(benchmark::kMicrosecond);

void BM_CompileG721(benchmark::State& state) {
    const std::string src = g721EncoderSource();
    for (auto _ : state) benchmark::DoNotOptimize(cc::compile(src));
}
BENCHMARK(BM_CompileG721)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
