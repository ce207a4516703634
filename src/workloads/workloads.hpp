// Benchmark harness plumbing: build the four MediaBench-equivalent programs,
// move inputs/outputs between host memory and simulated memory, and run the
// native golden references.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "mem/memory.hpp"
#include "workloads/adpcm.hpp"
#include "workloads/g711.hpp"
#include "workloads/g721.hpp"

namespace asbr {

/// The four benchmarks evaluated in the paper, plus the G.711 extension
/// pair (same MediaBench speech family, not in the paper's tables).
enum class BenchId {
    kAdpcmEncode, kAdpcmDecode, kG721Encode, kG721Decode,
    kG711Encode, kG711Decode,
};

/// The paper's evaluation set (Figures 6-11 iterate these four).
inline constexpr BenchId kAllBenches[] = {
    BenchId::kAdpcmEncode, BenchId::kAdpcmDecode, BenchId::kG721Encode,
    BenchId::kG721Decode};

/// Every benchmark, including extensions.
inline constexpr BenchId kAllBenchesExtended[] = {
    BenchId::kAdpcmEncode, BenchId::kAdpcmDecode, BenchId::kG721Encode,
    BenchId::kG721Decode,  BenchId::kG711Encode,  BenchId::kG711Decode};

/// Paper-style display name ("ADPCM Encode", ...).
[[nodiscard]] const char* benchName(BenchId id);

/// mcc source text of the benchmark program.
[[nodiscard]] std::string benchSource(BenchId id);

/// Maximum sample count the program's buffers accept.
[[nodiscard]] std::size_t benchMaxSamples(BenchId id);

/// True for the two encoders (PCM in / codes out).
[[nodiscard]] bool benchIsEncoder(BenchId id);

/// Compile a benchmark (with or without the condition-scheduling pass).
[[nodiscard]] Program buildBench(BenchId id, bool scheduleConditions = true);

/// Write PCM samples into `in_pcm` and set `n_samples`.
void loadPcmInput(Memory& memory, const Program& program,
                  std::span<const std::int16_t> pcm);

/// Write 4-bit codes into `io_code` and set `n_samples`.
void loadCodeInput(Memory& memory, const Program& program,
                   std::span<const std::uint8_t> codes);

/// Read encoder output (`io_code`).
[[nodiscard]] std::vector<std::uint8_t> readCodes(const Memory& memory,
                                                  const Program& program,
                                                  std::size_t count);

/// Read decoder output (`out_pcm`).
[[nodiscard]] std::vector<std::int16_t> readPcm(const Memory& memory,
                                                const Program& program,
                                                std::size_t count);

/// Run the native golden reference of an encoder benchmark: PCM -> codes.
[[nodiscard]] std::vector<std::uint8_t> runEncoderRef(
    BenchId id, std::span<const std::int16_t> pcm);

}  // namespace asbr
