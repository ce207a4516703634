#include "sim/functional.hpp"

namespace asbr {

FunctionalSim::FunctionalSim(const Program& program, Memory& memory)
    : program_(program), memory_(memory), decode_(program) {
    reset();
}

void FunctionalSim::reset() { state_ = resetState(program_); }

FunctionalResult FunctionalSim::run(std::uint64_t maxInstructions) {
    if (hook_)
        return run(maxInstructions,
                   [this](const DecodedOp& dec, const StepResult& sr) {
                       hook_(dec.ins, sr);
                   });
    return run(maxInstructions, [](const DecodedOp&, const ArchState&) {});
}

}  // namespace asbr
