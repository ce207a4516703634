#include "workloads/workloads.hpp"

#include "cc/compile.hpp"
#include "util/ensure.hpp"

namespace asbr {

const char* benchName(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return "ADPCM Encode";
        case BenchId::kAdpcmDecode: return "ADPCM Decode";
        case BenchId::kG721Encode: return "G.721 Encode";
        case BenchId::kG721Decode: return "G.721 Decode";
        case BenchId::kG711Encode: return "G.711 Encode";
        case BenchId::kG711Decode: return "G.711 Decode";
    }
    return "?";
}

std::string benchSource(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return adpcmEncoderSource();
        case BenchId::kAdpcmDecode: return adpcmDecoderSource();
        case BenchId::kG721Encode: return g721EncoderSource();
        case BenchId::kG721Decode: return g721DecoderSource();
        case BenchId::kG711Encode: return g711EncoderSource();
        case BenchId::kG711Decode: return g711DecoderSource();
    }
    return {};
}

std::size_t benchMaxSamples(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode:
        case BenchId::kAdpcmDecode: return 262144;
        case BenchId::kG721Encode:
        case BenchId::kG721Decode: return 131072;
        case BenchId::kG711Encode:
        case BenchId::kG711Decode: return 262144;
    }
    return 0;
}

bool benchIsEncoder(BenchId id) {
    return id == BenchId::kAdpcmEncode || id == BenchId::kG721Encode ||
           id == BenchId::kG711Encode;
}

Program buildBench(BenchId id, bool scheduleConditions) {
    cc::CompileOptions options;
    options.scheduleConditions = scheduleConditions;
    return cc::compile(benchSource(id), options).program;
}

namespace {

void setSampleCount(Memory& memory, const Program& program, std::size_t count) {
    memory.writeWord(program.symbol("n_samples"),
                     static_cast<std::int32_t>(count));
}

}  // namespace

void loadPcmInput(Memory& memory, const Program& program,
                  std::span<const std::int16_t> pcm) {
    const std::uint32_t base = program.symbol("in_pcm");
    ASBR_ENSURE((base & 1u) == 0, "loadPcmInput: in_pcm is not 16-bit aligned");
    std::vector<std::uint8_t> bytes(2 * pcm.size());
    for (std::size_t i = 0; i < pcm.size(); ++i) {
        const auto sample = static_cast<std::uint16_t>(pcm[i]);
        bytes[2 * i] = static_cast<std::uint8_t>(sample & 0xFF);  // little-endian
        bytes[2 * i + 1] = static_cast<std::uint8_t>(sample >> 8);
    }
    memory.writeBlock(base, bytes);
    setSampleCount(memory, program, pcm.size());
}

void loadCodeInput(Memory& memory, const Program& program,
                   std::span<const std::uint8_t> codes) {
    memory.writeBlock(program.symbol("io_code"), codes);
    setSampleCount(memory, program, codes.size());
}

std::vector<std::uint8_t> readCodes(const Memory& memory, const Program& program,
                                    std::size_t count) {
    const std::uint32_t base = program.symbol("io_code");
    std::vector<std::uint8_t> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = memory.read8(base + static_cast<std::uint32_t>(i));
    return out;
}

std::vector<std::int16_t> readPcm(const Memory& memory, const Program& program,
                                  std::size_t count) {
    const std::uint32_t base = program.symbol("out_pcm");
    std::vector<std::int16_t> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = memory.readHalf(base + static_cast<std::uint32_t>(2 * i));
    return out;
}

std::vector<std::uint8_t> runEncoderRef(BenchId id,
                                        std::span<const std::int16_t> pcm) {
    switch (id) {
        case BenchId::kAdpcmEncode: return adpcmEncodeRef(pcm);
        case BenchId::kG721Encode: return g721EncodeRef(pcm);
        case BenchId::kG711Encode: return g711EncodeRef(pcm);
        default: break;
    }
    ASBR_ENSURE(false, "runEncoderRef: not an encoder bench");
    return {};
}

}  // namespace asbr
