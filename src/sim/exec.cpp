#include "sim/exec.hpp"

namespace asbr {

namespace exec_detail {

// Out of line deliberately: syscalls are rare (I/O and exit), and keeping
// the string machinery out of the inline stepDecoded() body keeps the hot
// switch compact.
void doSyscall(ArchState& state, IoContext& io) {
    const auto service = static_cast<Syscall>(state.reg(reg::v0));
    const std::int32_t arg = state.reg(reg::a0);
    switch (service) {
        case Syscall::kExit:
            io.exited = true;
            io.exitCode = arg;
            return;
        case Syscall::kPutChar:
            io.output.push_back(static_cast<char>(arg & 0xFF));
            return;
        case Syscall::kPutInt:
            io.output += std::to_string(arg);
            return;
    }
    ASBR_ENSURE(false, "unknown syscall service " + std::to_string(state.reg(reg::v0)));
}

}  // namespace exec_detail

}  // namespace asbr
